package sim

import (
	"testing"

	"repro/internal/snapshot"
)

// TestCloneCompleteness pins the cloned structs' field lists: a new
// mutable field fails here until the Clone handles it.
func TestCloneCompleteness(t *testing.T) {
	snapshot.CheckCovered(t, RNG{}, "s")
	snapshot.CheckCovered(t, Histogram{}, "samples", "sorted", "sum")
}

// TestRNGCloneIndependence checks a cloned generator continues the same
// stream and then diverges independently.
func TestRNGCloneIndependence(t *testing.T) {
	r := NewRNG(42)
	r.Uint64()
	c := r.Clone()
	if a, b := r.Uint64(), c.Uint64(); a != b {
		t.Fatalf("clone diverged at the same position: %d != %d", a, b)
	}
	r.Uint64()
	c2 := r.Clone()
	if a, b := r.Uint64(), c2.Uint64(); a != b {
		t.Fatalf("re-clone diverged: %d != %d", a, b)
	}
}

// TestHistogramCloneIndependence checks sample storage is not shared.
func TestHistogramCloneIndependence(t *testing.T) {
	h := NewHistogram()
	h.Add(10)
	h.Add(20)
	c := h.Clone()
	c.Add(30)
	if h.Count() != 2 || c.Count() != 3 {
		t.Fatalf("counts: source %d (want 2), clone %d (want 3)", h.Count(), c.Count())
	}
	if h.Sum() != 30 || c.Sum() != 60 {
		t.Fatalf("sums: source %v, clone %v", h.Sum(), c.Sum())
	}
}
