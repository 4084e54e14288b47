package hotpath_test

import (
	"testing"

	"repro/internal/lint/hotpath"
	"repro/internal/lint/linttest"
)

func TestHotpath(t *testing.T) {
	linttest.Run(t, "testdata", hotpath.Analyzer,
		"internal/pram", "internal/memctrl", "internal/psm", "internal/pmemdimm",
		"internal/kernel", "internal/journal", "internal/coldpkg")
}
