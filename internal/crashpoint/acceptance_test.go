package crashpoint_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The acceptance test proves the crash-point checker catches a real bug
// class end to end, not just hand-written fixtures: it copies the live
// pmdk commit path (and its dependency closure) into a scratch module,
// seeds the classic torn-commit mutation — the persistent store hoisted
// above its undo-log append — and runs CheckPool against both trees. The
// clean copy must report zero violations; the mutated copy must be
// flagged.

// acceptanceClosure is the dependency closure of the portable checker
// core: invariant.go, recorder.go, and poolcheck.go need only these.
var acceptanceClosure = []string{
	"internal/sim",
	"internal/snapshot",
	"internal/trace",
	"internal/obs",
	"internal/power",
	"internal/energy",
	"internal/cache",
	"internal/wordtab",
	"internal/kernel",
	"internal/pmdk",
}

// checkerCore is the subset of internal/crashpoint that is portable into
// the scratch module (no platform, journal, or runner dependencies).
var checkerCore = []string{"invariant.go", "recorder.go", "poolcheck.go"}

// scratchModule copies the closure plus the checker core into a fresh
// module tree with a main package that runs CheckPool and prints every
// violation, one per line.
func scratchModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	copyPkg := func(srcDir, dstDir string, keep func(string) bool) {
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
			if keep != nil && !keep(name) {
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
	for _, pkg := range acceptanceClosure {
		copyPkg(filepath.Join("..", "..", filepath.FromSlash(pkg)),
			filepath.Join(root, filepath.FromSlash(pkg)), nil)
	}
	copyPkg(".", filepath.Join(root, "internal", "crashpoint"), func(name string) bool {
		for _, f := range checkerCore {
			if name == f {
				return true
			}
		}
		return false
	})

	gomod := "module repro\n\ngo 1.22\n"
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte(gomod), 0o644); err != nil {
		t.Fatal(err)
	}
	main := `package main

import (
	"fmt"
	"os"

	"repro/internal/crashpoint"
)

func main() {
	violations := crashpoint.CheckPool(1, 6, 5)
	for _, v := range violations {
		fmt.Println(v.String())
	}
	if len(violations) > 0 {
		os.Exit(1)
	}
}
`
	if err := os.WriteFile(filepath.Join(root, "main.go"), []byte(main), 0o644); err != nil {
		t.Fatal(err)
	}
	return root
}

// runChecker executes the scratch module's main and returns its combined
// output and whether it exited zero.
func runChecker(t *testing.T, root string) (string, bool) {
	t.Helper()
	cmd := exec.Command("go", "run", ".")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=-mod=mod")
	out, err := cmd.CombinedOutput()
	if err != nil {
		if _, isExit := err.(*exec.ExitError); !isExit {
			t.Fatalf("go run: %v\n%s", err, out)
		}
		return string(out), false
	}
	return string(out), true
}

// TestAcceptanceCleanTreePasses: the unmodified commit path survives
// exhaustive cut enumeration.
func TestAcceptanceCleanTreePasses(t *testing.T) {
	root := scratchModule(t)
	out, ok := runChecker(t, root)
	if !ok {
		t.Fatalf("clean tree flagged:\n%s", out)
	}
	if strings.TrimSpace(out) != "" {
		t.Fatalf("clean tree produced output:\n%s", out)
	}
}

// TestAcceptanceTornCommitCaught seeds the torn-commit mutation — the
// persistent write hoisted above the undo-log guard in Pool.Set, so the
// undo record captures the NEW value and rollback resurrects uncommitted
// state — and asserts the checker flags it as a residue/torn violation.
func TestAcceptanceTornCommitCaught(t *testing.T) {
	root := scratchModule(t)
	poolFile := filepath.Join(root, "internal", "pmdk", "pool.go")
	b, err := os.ReadFile(poolFile)
	if err != nil {
		t.Fatal(err)
	}
	old := "\taddr := p.wordAddr(oid, idx)\n" +
		"\tif p.bank.Read(poolTxAddr) == txActive {\n" +
		"\t\tp.logUndo(addr)\n" +
		"\t}\n" +
		"\tp.bank.Write(addr, val)\n"
	mutated := "\taddr := p.wordAddr(oid, idx)\n" +
		"\tp.bank.Write(addr, val)\n" +
		"\tif p.bank.Read(poolTxAddr) == txActive {\n" +
		"\t\tp.logUndo(addr)\n" +
		"\t}\n"
	if n := strings.Count(string(b), old); n != 1 {
		t.Fatalf("mutation anchor occurs %d times in pool.go, want exactly 1 — update the acceptance mutation", n)
	}
	if err := os.WriteFile(poolFile, []byte(strings.Replace(string(b), old, mutated, 1)), 0o644); err != nil {
		t.Fatal(err)
	}

	out, ok := runChecker(t, root)
	if ok {
		t.Fatal("torn-commit mutation not flagged")
	}
	if !strings.Contains(out, "uncommitted-residue") && !strings.Contains(out, "torn-commit") {
		t.Fatalf("mutation flagged without a residue/torn verdict:\n%s", out)
	}
}
