package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadFlagValuesExit2 checks that each flag value the command cannot
// honour fails with exit 2 before anything is simulated, and that the
// message names the bad value and what is allowed.
func TestBadFlagValuesExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-platform", "bogus"}, `"bogus" (want legacy, b, or full)`},
		{[]string{"-mode", "bogus"}, `"bogus" (want sng, sweep, or energy)`},
		{[]string{"-psu", "foo"}, `"foo" (want atx or server)`},
		{[]string{"-workload", "Redsi"}, `"Redsi" (want one of AES,`},
		{[]string{"-mode", "sweep", "-seeds", "1,x"}, `bad seed "x"`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: simulated despite the bad value:\n%s", tc.args, stdout.String())
		}
		if msg := stderr.String(); !strings.Contains(msg, tc.want) {
			t.Errorf("%v: stderr %q lacks %q", tc.args, msg, tc.want)
		}
	}
}

// TestEPCutCheckExitCodes checks the EP-cut verdict reaches the exit
// code: a committed Stop that resumes every process exits 0 in sng and
// sweep modes, and so does a torn Stop, which cold boots instead of
// resuming.
func TestEPCutCheckExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{}, "EP-cut verified"},
		{[]string{"-mode", "sweep", "-seeds", "1,2"}, "EP-cut verified"},
		{[]string{"-holdup", "100us"}, "no EP-cut, recovery cold boots"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 0 {
			t.Errorf("%v: exit %d, want 0; stderr: %s", tc.args, code, stderr.String())
		}
		if !strings.Contains(stdout.String(), tc.want) {
			t.Errorf("%v: stdout lacks %q:\n%s", tc.args, tc.want, stdout.String())
		}
	}
}
