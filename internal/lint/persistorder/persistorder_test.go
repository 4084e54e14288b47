package persistorder_test

import (
	"testing"

	"repro/internal/lint/linttest"
	"repro/internal/lint/persistorder"
)

func TestPersistorder(t *testing.T) {
	linttest.Run(t, "testdata", persistorder.Analyzer,
		"kernel", "journal", "pmdk", "sng", "checkpoint", "elsewhere")
}
