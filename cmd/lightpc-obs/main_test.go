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
