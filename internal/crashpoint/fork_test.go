package crashpoint

import (
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/snapshot"
)

// outcomeJSON renders a CutOutcome the way the reports do — the byte-level
// currency of the fork-vs-rebuild comparison.
func outcomeJSON(t *testing.T, out CutOutcome) string {
	t.Helper()
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestForkVsRebuildEquivalence pins the tentpole contract: cutting a fork
// of a built system yields a byte-identical CutOutcome to cutting a system
// freshly built from the same scenario, for every (seed, workload, offset)
// in the matrix. Offsets come from the same stratified+fuzzed grid Sweep
// uses, so the pin covers exactly the instants production sweeps probe.
func TestForkVsRebuildEquivalence(t *testing.T) {
	for _, wl := range []string{"Redis", "SQLite"} {
		for seed := uint64(1); seed <= 8; seed++ {
			sc := tinyScenario(seed)
			sc.Workload = wl
			base, err := Build(sc)
			if err != nil {
				t.Fatal(err)
			}
			offsets := CellOffsets(base, "fork-diff", 2)
			for _, off := range offsets {
				rebuilt, err := Build(sc)
				if err != nil {
					t.Fatal(err)
				}
				want := outcomeJSON(t, rebuilt.CutAt(off))
				got := outcomeJSON(t, base.Fork().CutAt(off))
				if got != want {
					t.Fatalf("%s seed %d offset %v: forked cut diverged from rebuilt cut\nforked:  %s\nrebuilt: %s",
						wl, seed, off, got, want)
				}
			}
		}
	}
}

// TestForkIndependence verifies that cutting one fork leaves the base
// system intact: forks taken after a sibling was consumed behave exactly
// like forks taken before.
func TestForkIndependence(t *testing.T) {
	sc := tinyScenario(3)
	base, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	off := base.Window / 3
	first := outcomeJSON(t, base.Fork().CutAt(off))
	// Consume another fork at a different offset in between.
	base.Fork().CutAt(base.Window)
	second := outcomeJSON(t, base.Fork().CutAt(off))
	if first != second {
		t.Fatalf("fork outcome changed after a sibling fork was cut:\nfirst:  %s\nsecond: %s", first, second)
	}
}

// TestForkStatsAccounted verifies forks report into the snapshot
// accountant: counts rise and bytes are nonzero for a real platform.
func TestForkStatsAccounted(t *testing.T) {
	sc := tinyScenario(1)
	base, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	st := snapshot.Default()
	forks, bytes := st.Forks(), st.Bytes()
	base.Fork()
	if st.Forks() != forks+1 {
		t.Fatalf("fork count %d, want %d", st.Forks(), forks+1)
	}
	if st.Bytes() <= bytes {
		t.Fatalf("fork bytes did not grow: %d -> %d", bytes, st.Bytes())
	}
}

// TestForkedSweepMatchesGrid re-runs one sweep cell by hand — build once,
// fork per offset — and checks the per-offset outcomes agree with what
// Sweep reports for the same cell.
func TestForkedSweepMatchesGrid(t *testing.T) {
	cfg := SweepConfig{Base: tinyScenario(0), Workloads: []string{"Redis"}, Seeds: []uint64{2}, CutsPerCell: 3, Jobs: 1}
	rep, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 1 {
		t.Fatalf("want 1 cell, got %d", len(rep.Cells))
	}
	sc := cfg.Base
	sc.Workload = "Redis"
	sc.Seed = 2
	base, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	offsets := CellOffsets(base, rep.Cells[0].Label, cfg.CutsPerCell)
	if len(offsets) != len(rep.Cells[0].Cuts) {
		t.Fatalf("grid size %d != reported cuts %d", len(offsets), len(rep.Cells[0].Cuts))
	}
	for i, off := range offsets {
		got := outcomeJSON(t, base.Fork().CutAt(off))
		want := outcomeJSON(t, rep.Cells[0].Cuts[i])
		if got != want {
			t.Fatalf("offset %v: hand-forked cut != sweep cell cut\nhand:  %s\nsweep: %s", off, got, want)
		}
	}
}

// TestConcurrentForksOfOneBase forks one built system from two goroutines
// at once and cuts every fork, on both the warm and the cold path. Fork
// marks the pages, log and device its clones share with one atomic store
// each on the source; under -race (make race) this test proves those marks
// race-free. Every concurrent outcome must equal the same cut of a fork
// taken serially.
func TestConcurrentForksOfOneBase(t *testing.T) {
	base, err := Build(tinyScenario(5))
	if err != nil {
		t.Fatal(err)
	}
	offsets := CellOffsets(base, "concurrent-forks", 2)
	want := make([]string, len(offsets))
	for i, off := range offsets {
		want[i] = outcomeJSON(t, base.Fork().CutAt(off))
	}

	got := make([][]string, 2)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, off := range offsets {
				b, err := json.Marshal(base.Fork().CutAt(off))
				if err != nil {
					t.Error(err)
					return
				}
				got[g] = append(got[g], string(b))
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		for i := range offsets {
			if i >= len(got[g]) || got[g][i] != want[i] {
				t.Fatalf("goroutine %d, offset %v: concurrent fork's cut differs from a serial fork's", g, offsets[i])
			}
		}
	}
}

// TestForkCutAllocations pins what one Fork().CutAt allocates on the bench
// cell, on the cold path (a cut at offset 0 leaves no commit, so the cut
// cold-boots a kernel) and on the warm path (a full hold-up window, so
// Stop commits and Go resumes). Forks and cold boots take each kind of
// kernel and PRAM object from one slab, and the recovery check reads the
// data store into one buffer; a change that goes back to one allocation
// per object crosses these ceilings.
func TestForkCutAllocations(t *testing.T) {
	base, err := Build(benchScenario())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		offset  sim.Duration
		ceiling float64
	}{
		{"cold boot", 0, 320},
		{"completed", base.Window, 280},
	} {
		var out CutOutcome
		n := testing.AllocsPerRun(20, func() { out = base.Fork().CutAt(tc.offset) })
		if out.ColdBooted != (tc.offset == 0) || len(out.Violations) != 0 {
			t.Fatalf("%s cut: cold-booted %v, violations %v", tc.name, out.ColdBooted, out.Violations)
		}
		t.Logf("%s cut: %.0f allocations", tc.name, n)
		if n > tc.ceiling {
			t.Errorf("%s cut makes %.0f allocations, ceiling %.0f", tc.name, n, tc.ceiling)
		}
	}
}
