package pram

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestDefaultConfigRatios(t *testing.T) {
	cfg := DefaultConfig()
	ratio := float64(cfg.WriteLatency) / float64(cfg.ReadLatency)
	if ratio < 4.0 || ratio > 4.2 {
		t.Fatalf("write/read ratio = %v, want ~4.1 (Table I)", ratio)
	}
}

func TestReadDeterministic(t *testing.T) {
	d := NewDevice(DefaultConfig())
	var now sim.Time
	var prev sim.Duration
	for i := 0; i < 100; i++ {
		done, conflicted, corrupted := d.Read(now, uint64(i))
		if conflicted || corrupted {
			t.Fatal("unexpected conflict/corruption on clean reads")
		}
		lat := done.Sub(now)
		if i > 0 && lat != prev {
			t.Fatalf("read latency varied: %v vs %v", lat, prev)
		}
		prev = lat
		now = done
	}
	if prev != DefaultConfig().ReadLatency {
		t.Fatalf("read latency = %v", prev)
	}
}

func TestReadAfterWriteConflict(t *testing.T) {
	cfg := DefaultConfig()
	d := NewDevice(cfg)
	_, complete := d.Write(0, 7)
	done, conflicted, _ := d.Read(complete.Add(-sim.Nanosecond), 7)
	if !conflicted {
		t.Fatal("read during cooling window must conflict")
	}
	if done.Before(complete) {
		t.Fatalf("conflicted read finished %v before write completion %v", done, complete)
	}
	// A read after the window is clean.
	_, conflicted, _ = d.Read(complete, 7)
	if conflicted {
		t.Fatal("read after cooling window must not conflict")
	}
}

func TestReadOtherRowDuringWriteNoConflict(t *testing.T) {
	d := NewDevice(DefaultConfig())
	accept, complete := d.Write(0, 7)
	// Device interface frees after the transfer slot, long before complete.
	done, conflicted, _ := d.Read(accept.Add(DefaultConfig().ReadLatency), 8)
	if conflicted {
		t.Fatal("different row must not conflict")
	}
	if !done.Before(complete) {
		t.Fatal("read of other row should finish before the cooling window ends")
	}
}

func TestOverwriteSerializesBehindCooling(t *testing.T) {
	d := NewDevice(DefaultConfig())
	_, c1 := d.Write(0, 3)
	a2, c2 := d.Write(0, 3)
	if a2.Before(c1) {
		t.Fatalf("overwrite accepted at %v before first completes at %v", a2, c1)
	}
	if !c2.After(c1) {
		t.Fatal("second write must complete after first")
	}
}

func TestWritesToDistinctRowsPipeline(t *testing.T) {
	cfg := DefaultConfig()
	d := NewDevice(cfg)
	var last sim.Time
	const n = 10
	for i := 0; i < n; i++ {
		_, complete := d.Write(0, uint64(i))
		last = complete
	}
	// Pipelined: total ≈ (n-1)*transfer + write, far below n*write.
	serial := sim.Time(sim.Duration(n) * cfg.WriteLatency)
	if last >= serial {
		t.Fatalf("writes did not pipeline: last=%v serial bound=%v", last, serial)
	}
}

func TestDrainCoversAllWrites(t *testing.T) {
	d := NewDevice(DefaultConfig())
	var latest sim.Time
	for i := 0; i < 20; i++ {
		_, c := d.Write(0, uint64(i*3))
		if c.After(latest) {
			latest = c
		}
	}
	if got := d.Drain(0); got != latest {
		t.Fatalf("Drain = %v, want %v", got, latest)
	}
	// After the window, drain returns now.
	if got := d.Drain(latest.Add(sim.Microsecond)); got != latest.Add(sim.Microsecond) {
		t.Fatalf("post-drain Drain = %v", got)
	}
}

func TestWearTracking(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TrackWear = true
	d := NewDevice(cfg)
	now := sim.Time(0)
	for i := 0; i < 5; i++ {
		_, c := d.Write(now, 9)
		now = c
	}
	d.Write(now, 4)
	if d.WearCount(9) != 5 || d.WearCount(4) != 1 {
		t.Fatalf("wear = %d/%d", d.WearCount(9), d.WearCount(4))
	}
	row, count := d.MaxWear()
	if row != 9 || count != 5 {
		t.Fatalf("MaxWear = %d,%d", row, count)
	}
	if d.TouchedRows() != 2 {
		t.Fatalf("TouchedRows = %d", d.TouchedRows())
	}
}

func TestWearDisabledByDefault(t *testing.T) {
	d := NewDevice(DefaultConfig())
	d.Write(0, 1)
	if d.WearCount(1) != 0 || d.TouchedRows() != 0 {
		t.Fatal("wear tracked without TrackWear")
	}
}

func TestBitErrorInjection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BitErrorPerRead = 0.5
	cfg.Seed = 99
	d := NewDevice(cfg)
	corrupted := 0
	now := sim.Time(0)
	for i := 0; i < 1000; i++ {
		done, _, corr := d.Read(now, uint64(i))
		if corr {
			corrupted++
		}
		now = done
	}
	if corrupted < 400 || corrupted > 600 {
		t.Fatalf("corrupted = %d of 1000 at p=0.5", corrupted)
	}
	_, _, _, errs := d.Stats()
	if int(errs) != corrupted {
		t.Fatalf("error counter %d != observed %d", errs, corrupted)
	}
}

func TestStatsCounters(t *testing.T) {
	d := NewDevice(DefaultConfig())
	d.Write(0, 1)
	d.Read(0, 1) // conflicts
	d.Read(sim.Time(sim.Second), 2)
	r, w, c, _ := d.Stats()
	if r != 2 || w != 1 || c != 1 {
		t.Fatalf("stats = %d/%d/%d", r, w, c)
	}
}

// Property: a conflicted read never completes before the conflicting write.
func TestConflictOrderingProperty(t *testing.T) {
	f := func(rows []uint8) bool {
		d := NewDevice(DefaultConfig())
		now := sim.Time(0)
		pending := map[uint64]sim.Time{}
		for i, r := range rows {
			row := uint64(r % 8)
			if i%2 == 0 {
				_, c := d.Write(now, row)
				pending[row] = c
			} else {
				// The real invariant: the read never returns data from a
				// row whose program has not completed — its completion
				// time is at or after the write's. (The conflicted flag
				// may be false when interface serialization already
				// pushed the read past the cooling window.)
				done, _, _ := d.Read(now, row)
				if c, ok := pending[row]; ok && done.Before(c) {
					return false
				}
			}
			now = now.Add(10 * sim.Nanosecond)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWearOutCorruptsReads(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TrackWear = true
	cfg.EnduranceCycles = 10
	d := NewDevice(cfg)
	now := sim.Time(0)
	for i := 0; i < 10; i++ {
		_, c := d.Write(now, 5)
		now = c
	}
	if d.WornOut(5) {
		t.Fatal("row worn out within budget")
	}
	if _, _, corr := d.Read(now, 5); corr {
		t.Fatal("read corrupted within endurance budget")
	}
	_, c := d.Write(now, 5) // the 11th write crosses the budget
	now = c
	if !d.WornOut(5) {
		t.Fatal("row not worn out past budget")
	}
	if _, _, corr := d.Read(now, 5); !corr {
		t.Fatal("worn-out read not corrupted")
	}
	// Other rows unaffected.
	if _, _, corr := d.Read(now.Add(sim.Microsecond), 6); corr {
		t.Fatal("healthy row corrupted")
	}
}

func TestWearOutNeedsTracking(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnduranceCycles = 1 // no TrackWear: the model cannot engage
	d := NewDevice(cfg)
	now := sim.Time(0)
	for i := 0; i < 5; i++ {
		_, c := d.Write(now, 1)
		now = c
	}
	if _, _, corr := d.Read(now, 1); corr {
		t.Fatal("wear-out engaged without tracking")
	}
}
