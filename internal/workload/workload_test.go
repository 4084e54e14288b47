package workload

import (
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

func TestTable2Complete(t *testing.T) {
	specs := Table2()
	if len(specs) != 17 {
		t.Fatalf("Table II has %d workloads, want 17", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.Name] {
			t.Fatalf("duplicate workload %q", s.Name)
		}
		seen[s.Name] = true
		if s.Reads <= 0 || s.Writes <= 0 {
			t.Fatalf("%s: non-positive counts", s.Name)
		}
		if s.DReadHit <= 0 || s.DReadHit > 1 || s.DWriteHit <= 0 || s.DWriteHit > 1 {
			t.Fatalf("%s: hit rates out of range", s.Name)
		}
		if s.WriteStreamFrac < 0 || s.WriteStreamFrac > 1 || s.RAWFrac < 0 || s.RAWFrac > 1 {
			t.Fatalf("%s: derived knobs out of range", s.Name)
		}
	}
}

func TestTable2RatiosMatchPaper(t *testing.T) {
	// Spot-check the "#Write" (reads-per-write) column.
	cases := map[string]float64{
		"AES":    4.8,
		"mcf":    340, // paper rounds to 345
		"SHA512": 14.4,
	}
	for name, want := range cases {
		s, ok := ByName(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		got := s.ReadWriteRatio()
		if got < want*0.9 || got > want*1.1 {
			t.Errorf("%s ratio = %.1f, want ~%.1f", name, got, want)
		}
	}
}

func TestTable2AverageLoadStoreRatio(t *testing.T) {
	// Section VI-A: "the number of loads is 27× greater than that of
	// stores, on average" (average of per-workload ratios).
	var sum float64
	specs := Table2()
	for _, s := range specs {
		sum += s.ReadWriteRatio()
	}
	avg := sum / float64(len(specs))
	if avg < 20 || avg > 35 {
		t.Fatalf("average load/store ratio = %.1f, want ~27", avg)
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, ok := ByName("nope"); ok {
		t.Fatal("unknown workload resolved")
	}
}

func TestMemoryIntensivePicksTwo(t *testing.T) {
	ms := MemoryIntensive()
	if len(ms) != 2 || ms[0].Name == "" || ms[1].Name == "" {
		t.Fatalf("MemoryIntensive = %+v", ms)
	}
}

func TestSyntheticEmitsExactCount(t *testing.T) {
	s, _ := ByName("AES")
	g := NewSynthetic(s, 10000, 1)
	n := uint64(0)
	for {
		_, ok := g.Next()
		if !ok {
			break
		}
		n++
	}
	if n != 10000 {
		t.Fatalf("emitted %d refs, want 10000", n)
	}
	if g.Remaining() != 0 {
		t.Fatal("Remaining != 0 at end")
	}
}

func TestSyntheticMatchesCharacterization(t *testing.T) {
	// The emitted memory-level read/write mix must match Table II.
	for _, name := range []string{"AES", "AMG", "mcf", "astar", "bzip2", "Redis"} {
		s, _ := ByName(name)
		g := NewSynthetic(s, 200000, 7)
		for {
			if _, ok := g.Next(); !ok {
				break
			}
		}
		st := g.Stats()
		wantRatio := s.ReadWriteRatio()
		gotRatio := st.ReadWriteRatio()
		if gotRatio < wantRatio*0.9 || gotRatio > wantRatio*1.1 {
			t.Errorf("%s: r/w ratio %.1f, want ~%.1f", name, gotRatio, wantRatio)
		}
	}
}

func TestGapCyclesFollowsHitRates(t *testing.T) {
	aes, _ := ByName("AES") // 99%+ hits: compute-bound, capped gap
	amg, _ := ByName("AMG") // 84% hits: memory-bound, small gap
	if GapCycles(aes) != maxComputeCycles {
		t.Fatalf("AES gap = %d, want cap %d", GapCycles(aes), maxComputeCycles)
	}
	if GapCycles(amg) >= GapCycles(aes) {
		t.Fatal("memory-bound workload should have a smaller compute gap")
	}
	if GapCycles(Spec{}) != ComputePerMemOp {
		t.Fatal("empty spec should fall back to the minimum gap")
	}
}

func TestBackgroundTraffic(t *testing.T) {
	b := NewBackground(1000, 3)
	if b.Name() != "kernel-threads" {
		t.Fatal("name wrong")
	}
	reads, writes := 0, 0
	for {
		r, ok := b.Next()
		if !ok {
			break
		}
		if r.Access.Op == trace.OpRead {
			reads++
		} else {
			writes++
		}
	}
	if reads+writes != 1000 {
		t.Fatalf("emitted %d refs", reads+writes)
	}
	if reads < 800 || reads > 900 {
		t.Fatalf("background should be ~85%% reads, got %d/1000", reads)
	}
	if b.Remaining() != 0 {
		t.Fatal("Remaining != 0")
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	s, _ := ByName("gcc")
	g1 := NewSynthetic(s, 1000, 42)
	g2 := NewSynthetic(s, 1000, 42)
	for {
		r1, ok1 := g1.Next()
		r2, ok2 := g2.Next()
		if ok1 != ok2 {
			t.Fatal("streams ended at different points")
		}
		if !ok1 {
			break
		}
		if r1 != r2 {
			t.Fatal("same-seed generators diverged")
		}
	}
}

func TestSyntheticSeedsDiffer(t *testing.T) {
	s, _ := ByName("gcc")
	g1 := NewSynthetic(s, 1000, 1)
	g2 := NewSynthetic(s, 1000, 2)
	same := 0
	for i := 0; i < 1000; i++ {
		r1, _ := g1.Next()
		r2, _ := g2.Next()
		if r1.Access == r2.Access {
			same++
		}
	}
	if same > 900 {
		t.Fatalf("different seeds nearly identical: %d/1000", same)
	}
}

func TestSyntheticAddressesWithinFootprint(t *testing.T) {
	f := func(seed uint64) bool {
		s, _ := ByName("AES")
		g := NewSynthetic(s, 500, seed)
		for {
			r, ok := g.Next()
			if !ok {
				return true
			}
			if r.Access.Addr >= s.FootprintBytes {
				return false
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRecentRing(t *testing.T) {
	r := newRecentRing(4)
	if _, ok := r.pick(nil); ok {
		t.Fatal("empty ring picked")
	}
	for i := uint64(0); i < 6; i++ {
		r.push(i)
	}
	if r.size() != 4 {
		t.Fatalf("size = %d", r.size())
	}
}

func TestStreamKernels(t *testing.T) {
	for _, k := range Kernels() {
		g := NewStream(k, 64)
		reads, writes := uint64(0), uint64(0)
		for {
			r, ok := g.Next()
			if !ok {
				break
			}
			if r.Access.Op == trace.OpRead {
				reads++
			} else {
				writes++
			}
		}
		wantReads := uint64(64)
		if k == Add || k == Triad {
			wantReads = 128
		}
		if reads != wantReads || writes != 64 {
			t.Errorf("%v: reads/writes = %d/%d, want %d/64", k, reads, writes, wantReads)
		}
	}
}

func TestStreamHitPattern(t *testing.T) {
	g := NewStream(Copy, 64) // 8 lines per array
	misses := 0
	for {
		r, ok := g.Next()
		if !ok {
			break
		}
		if !r.L1Hit {
			misses++
		}
	}
	// One miss per new line per stream: 8 lines × 2 arrays = 16.
	if misses != 16 {
		t.Fatalf("misses = %d, want 16", misses)
	}
	st := g.Stats()
	if st.DReadHitRate() != 7.0/8.0 {
		t.Fatalf("read hit rate = %v", st.DReadHitRate())
	}
}

func TestStreamBytesPerElement(t *testing.T) {
	if Copy.BytesPerElement() != 16 || Add.BytesPerElement() != 24 {
		t.Fatal("BytesPerElement wrong")
	}
}

func TestStreamNames(t *testing.T) {
	if NewStream(Triad, 1).Name() != "STREAM-Triad" {
		t.Fatal("name wrong")
	}
	if Kernel(9).String() != "Kernel(?)" {
		t.Fatal("unknown kernel name wrong")
	}
}

func TestStreamRemaining(t *testing.T) {
	g := NewStream(Add, 2)
	want := uint64(6)
	for {
		if g.Remaining() != want {
			t.Fatalf("Remaining = %d, want %d", g.Remaining(), want)
		}
		if _, ok := g.Next(); !ok {
			break
		}
		want--
	}
}
