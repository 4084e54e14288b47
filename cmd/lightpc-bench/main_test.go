package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUnknownFormatExit2 checks that an output format the command cannot
// write fails before any experiment runs, instead of printing text.
func TestUnknownFormatExit2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-format", "xml", "-exp", "tableI"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("printed tables despite the bad -format:\n%s", stdout.String())
	}
	if msg := stderr.String(); !strings.Contains(msg, `"xml"`) || !strings.Contains(msg, "want text or json") {
		t.Errorf("stderr %q does not name the bad value and the allowed ones", msg)
	}
}
