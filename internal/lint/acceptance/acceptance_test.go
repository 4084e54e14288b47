// Package acceptance proves the analyzers guard the real hot paths, not
// just hand-written fixtures: each test copies a live package closure out
// of the repository into a scratch GOPATH tree, seeds the exact regression
// the analyzer exists to catch — an allocation in the core-interleave
// loop, a datastore write hoisted above its undo-log append, an
// environment read feeding simulation code, a map ranged while exporting
// metrics — and asserts the analyzer fires on the seeded line (and nowhere
// else).
package acceptance_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint/determinism"
	"repro/internal/lint/linttest"
	"repro/internal/lint/persistorder"
	"repro/internal/lint/zeroalloc"
)

// cpuClosure is the dependency closure of internal/cpu (go list -deps),
// the package holding the interleaver hot loop pinned at 0 allocs/op.
var cpuClosure = []string{
	"internal/sim",
	"internal/trace",
	"internal/cache",
	"internal/obs",
	"internal/power",
	"internal/energy",
	"internal/workload",
	"internal/cpu",
}

// pmdkClosure is the dependency closure of internal/pmdk, the undo-logged
// pool whose write ordering persistorder enforces.
var pmdkClosure = []string{
	"internal/sim",
	"internal/trace",
	"internal/cache",
	"internal/obs",
	"internal/wordtab",
	"internal/kernel",
	"internal/pmdk",
}

// obsClosure is the dependency closure of internal/obs, the exporter
// layer the determinism analyzer holds to its strictest level.
var obsClosure = []string{
	"internal/sim",
	"internal/trace",
	"internal/obs",
}

// scratchTree copies the given packages from the repository root into a
// fresh GOPATH-style tree (skipping test files) and returns its root.
func scratchTree(t *testing.T, pkgs []string) string {
	t.Helper()
	root := t.TempDir()
	for _, pkg := range pkgs {
		srcDir := filepath.Join("..", "..", "..", filepath.FromSlash(pkg))
		dstDir := filepath.Join(root, "src", "repro", filepath.FromSlash(pkg))
		if err := os.MkdirAll(dstDir, 0o755); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(srcDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			b, err := os.ReadFile(filepath.Join(srcDir, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dstDir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return root
}

// mutate seeds a violation: old must occur exactly once in file (so the
// test fails loudly if the hot path is refactored) and is replaced by new,
// which carries the `// want` assertion.
func mutate(t *testing.T, file, old, new string) {
	t.Helper()
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(b), old); n != 1 {
		t.Fatalf("anchor %q occurs %d times in %s, want exactly 1 — update the acceptance mutation", old, n, file)
	}
	if err := os.WriteFile(file, []byte(strings.Replace(string(b), old, new, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestZeroallocCatchesHotLoopAllocation inserts a make into the core
// interleaver's per-reference loop — the regression that would turn the
// pinned 0 allocs/op benches red — and asserts zeroalloc reports it.
func TestZeroallocCatchesHotLoopAllocation(t *testing.T) {
	root := scratchTree(t, cpuClosure)
	mutate(t, filepath.Join(root, "src", "repro", "internal", "cpu", "cpu.go"),
		"\t\tref := c.batch[c.pos]\n",
		"\t\tref := c.batch[c.pos]\n"+
			"\t\tscratch := make([]int, 1) // want `make allocates`\n"+
			"\t\t_ = scratch\n")
	linttest.Run(t, root, zeroalloc.Analyzer, "repro/internal/cpu")
}

// TestPersistorderCatchesReorderedUndoLog hoists pmdk's datastore write
// above the undo-log append in Pool.Set — the torn-update bug class — and
// asserts persistorder reports the early mutation.
func TestPersistorderCatchesReorderedUndoLog(t *testing.T) {
	root := scratchTree(t, pmdkClosure)
	mutate(t, filepath.Join(root, "src", "repro", "internal", "pmdk", "pool.go"),
		"\taddr := p.wordAddr(oid, idx)\n"+
			"\tif p.bank.Read(poolTxAddr) == txActive {\n"+
			"\t\tp.logUndo(addr)\n"+
			"\t}\n"+
			"\tp.bank.Write(addr, val)\n",
		"\taddr := p.wordAddr(oid, idx)\n"+
			"\tp.bank.Write(addr, val) // want `precedes the journal append`\n"+
			"\tif p.bank.Read(poolTxAddr) == txActive {\n"+
			"\t\tp.logUndo(addr)\n"+
			"\t}\n")
	linttest.Run(t, root, persistorder.Analyzer, "repro/internal/pmdk")
}

// TestDeterminismCatchesEnvReadInSimCode adds a helper that samples the
// host environment and a caller inside internal/cpu: the read itself is
// reported, and the Impure fact must propagate from the seed to the call
// edge.
func TestDeterminismCatchesEnvReadInSimCode(t *testing.T) {
	root := scratchTree(t, cpuClosure)
	extra := `package cpu

import "os"

func nodeEnv() string {
	return os.Getenv("LIGHTPC_NODE") // want ` + "`os\\.Getenv in simulation code`" + `
}

func useNodeEnv() string {
	return nodeEnv() // want ` + "`transitively nondeterministic`" + `
}
`
	if err := os.WriteFile(filepath.Join(root, "src", "repro", "internal", "cpu", "zz_seeded.go"), []byte(extra), 0o644); err != nil {
		t.Fatal(err)
	}
	linttest.Run(t, root, determinism.Analyzer, "repro/internal/cpu")
}

// TestDeterminismCatchesMapRangeInObsExport makes the Prometheus exporter
// gather its metrics by ranging the registry's name index instead of
// copying the insertion-ordered slice, and asserts the exported-layer rule
// fires on the real import path repro/internal/obs, not only on the
// fixture path. The sort that follows does not excuse it: in the exported
// layers a map is for lookups only.
func TestDeterminismCatchesMapRangeInObsExport(t *testing.T) {
	root := scratchTree(t, obsClosure)
	mutate(t, filepath.Join(root, "src", "repro", "internal", "obs", "export.go"),
		"\tms := make([]*Metric, len(r.metrics))\n"+
			"\tcopy(ms, r.metrics)\n",
		"\tms := make([]*Metric, 0, len(r.metrics))\n"+
			"\tfor _, i := range r.byName { // want `map iteration in internal/obs`\n"+
			"\t\tms = append(ms, r.metrics[i])\n"+
			"\t}\n")
	linttest.Run(t, root, determinism.Analyzer, "repro/internal/obs")
}
