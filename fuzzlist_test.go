package lightpc_test

// Every fuzz target in the module must run in the Makefile's fuzz-smoke
// list, which may not name a target that is gone: a -fuzz pattern that
// matches nothing passes silently. CI runs that list through
// `make fuzz-smoke` rather than keeping a copy of its own.

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

func TestFuzzTargetsInSmokeLists(t *testing.T) {
	funcRE := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	var targets []string // "./pkg FuzzName", in walk order
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == "." {
			return err
		}
		if d.IsDir() {
			// Hidden trees, lint fixtures and nested modules are not
			// packages of this module.
			if _, modErr := os.Stat(filepath.Join(path, "go.mod")); modErr == nil ||
				strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range funcRE.FindAllStringSubmatch(string(src), -1) {
			targets = append(targets, "./"+filepath.ToSlash(filepath.Dir(path))+" "+m[1])
		}
		return err
	})
	if err != nil || len(targets) == 0 {
		t.Fatalf("scanning for fuzz targets: %v (found %d)", err, len(targets))
	}

	src, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	var runs []string
	for _, m := range regexp.MustCompile(`test (\./\S+) .*-fuzz=(\w+)`).FindAllStringSubmatch(string(src), -1) {
		runs = append(runs, m[1]+" "+m[2])
	}
	for _, target := range targets {
		if !slices.Contains(runs, target) {
			t.Errorf("Makefile does not fuzz %s", target)
		}
	}
	for _, run := range runs {
		if !slices.Contains(targets, run) {
			t.Errorf("Makefile fuzzes %s, which is not a fuzz target in the module", run)
		}
	}

	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`(?m)^\s+run: make fuzz-smoke\b`).Match(ci) {
		t.Error(".github/workflows/ci.yml does not run make fuzz-smoke")
	}
}
