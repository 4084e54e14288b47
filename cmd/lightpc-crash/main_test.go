package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUnknownTargetExit2 checks that a misspelled -target fails before any
// enumeration runs, instead of checking nothing and reporting OK.
func TestUnknownTargetExit2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-mode", "enum", "-target", "pol"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("ran despite the bad -target:\n%s", stdout.String())
	}
	if msg := stderr.String(); !strings.Contains(msg, `"pol"`) || !strings.Contains(msg, "want all, pool, ckpt, hibernate, journal") {
		t.Errorf("stderr %q does not name the bad value and the allowed ones", msg)
	}
}

// TestEnumAllRunsEveryTarget checks that -target all enumerates every
// persistence mechanism and passes.
func TestEnumAllRunsEveryTarget(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-mode", "enum", "-target", "all", "-q"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	for _, name := range []string{"pool", "ckpt", "hibernate", "journal"} {
		if want := "enum " + name + ": 0 violations\n"; !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
		}
	}
	if !strings.HasSuffix(stdout.String(), "OK: all recovery invariants hold\n") {
		t.Errorf("no OK verdict:\n%s", stdout.String())
	}
}
