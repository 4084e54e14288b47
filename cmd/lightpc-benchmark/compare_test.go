package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// around returns n values alternating ±spread around center.
func around(center, spread float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		d := spread * float64(i%5-2) / 2
		out[i] = center + d
	}
	return out
}

func TestVerdictOnSyntheticSamples(t *testing.T) {
	parent := around(100, 1, 10)
	for _, c := range []struct {
		name   string
		olds   []float64
		news   []float64
		higher bool
		want   string
	}{
		{"clear gain", parent, around(120, 1, 10), true, "improved"},
		{"clear gain, lower is better", parent, around(80, 1, 10), false, "improved"},
		{"same distribution", parent, around(100.2, 1, 10), true, "no change"},
		{"small loss inside the bound", parent, around(95, 1, 10), true, "no change"},
		{"loss beyond the bound", parent, around(80, 1, 10), true, "worse"},
		{"loss beyond the bound, lower is better", parent, around(120, 1, 10), false, "worse"},
		{"parent spread wider than the bound", around(100, 40, 10), around(100, 1, 10), true, "unresolved"},
		{"wide spread but every run better", around(100, 40, 10), around(300, 1, 10), true, "improved"},
		{"gain on too few pairs", parent[:5], around(120, 1, 5), true, "no change"},
	} {
		got, _, _ := verdict(c.olds, c.news, c.higher, 0.10)
		if got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestVerdictCountsTiesForNeitherSide(t *testing.T) {
	olds := around(100, 1, 10)
	news := append([]float64(nil), olds...)
	_, win, pairs := verdict(olds, news, true, 0.10)
	if win != 0 || pairs != 10 {
		t.Fatalf("identical runs: win %v over %d pairs, want 0 over 10", win, pairs)
	}
}

func TestCompareReadsSavedRuns(t *testing.T) {
	dir := t.TempDir()
	write := func(side string, i int, opsPerS float64) {
		p := filepath.Join(dir, side)
		if err := os.MkdirAll(p, 0o755); err != nil {
			t.Fatal(err)
		}
		out := fmt.Sprintf("# header\nmetric oc-pmem ops_per_s %v 1/s\nmetric oc-pmem lightpc.new_ms 1 ms/op\ninfo oc-pmem rounds 3\n{}\n", opsPerS)
		if err := os.WriteFile(filepath.Join(p, fmt.Sprintf("run%02d.txt", i)), []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		write("old", i, 20+0.1*float64(i%3))
		write("new", i, 10+0.1*float64(i%3))
	}
	var stdout, stderr bytes.Buffer
	code := compareMain([]string{"-old", filepath.Join(dir, "old"), "-new", filepath.Join(dir, "new")}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1 for a regression; stderr %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "ops_per_s") || !strings.Contains(out, "worse") {
		t.Fatalf("missing the worse ops_per_s row:\n%s", out)
	}
	if strings.Contains(out, "lightpc.new_ms") {
		t.Fatalf("per-layer metrics have no bound and get no verdict:\n%s", out)
	}
}
