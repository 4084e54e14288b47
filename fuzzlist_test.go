package lightpc_test

// Every fuzz target in the module must run in both fuzz-smoke lists, the
// Makefile's and CI's, and neither list may name a target that is gone: a
// -fuzz pattern that matches nothing passes silently.

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

	runRE := regexp.MustCompile(`test (\./\S+) .*-fuzz=(\w+)`)
	for _, list := range []string{"Makefile", ".github/workflows/ci.yml"} {
		src, err := os.ReadFile(list)
		if err != nil {
			t.Fatal(err)
		}
		var runs []string
		for _, m := range runRE.FindAllStringSubmatch(string(src), -1) {
			runs = append(runs, m[1]+" "+m[2])
		}
		for _, target := range targets {
			if !slices.Contains(runs, target) {
				t.Errorf("%s does not fuzz %s", list, target)
			}
		}
		for _, run := range runs {
			if !slices.Contains(targets, run) {
				t.Errorf("%s fuzzes %s, which is not a fuzz target in the module", list, run)
			}
		}
	}
}
