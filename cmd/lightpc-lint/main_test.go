package main_test

// Smoke test: lightpc-lint builds, speaks the vettool protocol well enough
// for cmd/go, passes a clean package, and fails a package that calls
// time.Now() inside internal/.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestVettoolSmoke(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not available")
	}

	tmp := t.TempDir()
	tool := filepath.Join(tmp, "lightpc-lint")
	build := exec.Command(goTool, "build", "-o", tool, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building lightpc-lint: %v\n%s", err, out)
	}

	mod := filepath.Join(tmp, "m")
	writeFile(t, filepath.Join(mod, "go.mod"), "module m\n\ngo 1.22\n")
	writeFile(t, filepath.Join(mod, "internal", "ok", "ok.go"), `package ok

func Add(a, b int) int { return a + b }
`)
	writeFile(t, filepath.Join(mod, "internal", "wallclock", "wallclock.go"), `package wallclock

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`)

	vet := func(pkg string) (string, error) {
		cmd := exec.Command(goTool, "vet", "-vettool="+tool, pkg)
		cmd.Dir = mod
		out, err := cmd.CombinedOutput()
		return string(out), err
	}

	if out, err := vet("./internal/ok"); err != nil {
		t.Errorf("clean package should vet clean, got: %v\n%s", err, out)
	}
	out, err := vet("./internal/wallclock")
	if err == nil {
		t.Errorf("wall-clock package should fail vet, got success:\n%s", out)
	}
	if !strings.Contains(out, "[determinism]") || !strings.Contains(out, "time.Now") {
		t.Errorf("missing determinism diagnostic in output:\n%s", out)
	}
}
