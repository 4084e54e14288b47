package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUnknownPSUExit2 checks that a PSU the command does not model fails
// before the simulation starts, instead of running on ATX.
func TestUnknownPSUExit2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-psu", "foo"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("simulated despite the bad -psu:\n%s", stdout.String())
	}
	if msg := stderr.String(); !strings.Contains(msg, `"foo"`) || !strings.Contains(msg, "want atx or server") {
		t.Errorf("stderr %q does not name the bad value and the allowed ones", msg)
	}
}
