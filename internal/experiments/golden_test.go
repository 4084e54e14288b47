package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden experiment outputs")

// TestGoldenOutputs locks every experiment's rendered output against
// checked-in golden files: the simulation is seeded, and the runner's
// cells are sub-seeded by label and merged in canonical order, so any
// diff is a real behaviour change — at every parallelism. The test runs
// through the parallel runner (Jobs = GOMAXPROCS); the serial/parallel
// equivalence test pins the j-independence itself. A golden file that
// names no experiment fails too, so a deleted experiment cannot leave its
// golden behind. Regenerate intentionally with
//
//	go test ./internal/experiments -run Golden -update
func TestGoldenOutputs(t *testing.T) {
	o := QuickOptions()
	o.Jobs = runtime.GOMAXPROCS(0)
	ids := map[string]bool{}
	for _, n := range All() {
		n := n
		ids[n.ID] = true
		t.Run(n.ID, func(t *testing.T) {
			var b strings.Builder
			for _, tab := range n.Run(o) {
				b.WriteString(tab.String())
				b.WriteString("\n")
			}
			got := b.String()
			path := filepath.Join("testdata", n.ID+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s output changed; first diff near:\n%s\n---\nregenerate with -update if intentional",
					n.ID, firstDiff(got, string(want)))
			}
		})
	}
	goldens, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range goldens {
		if id := strings.TrimSuffix(filepath.Base(path), ".golden"); !ids[id] {
			t.Errorf("%s matches no experiment id in All(); delete it", path)
		}
	}
}

// firstDiff shows the first differing line pair.
func firstDiff(got, want string) string {
	g := strings.Split(got, "\n")
	w := strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return "got:  " + g[i] + "\nwant: " + w[i]
		}
	}
	return "length mismatch"
}
