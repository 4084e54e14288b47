package dram

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func noRefresh() Config {
	cfg := DefaultConfig()
	cfg.RefreshInterval = 0
	return cfg
}

func TestRowHitFasterThanMiss(t *testing.T) {
	d := New(noRefresh())
	done1 := d.Read(0, 0) // cold: row miss
	if got := done1.Sub(0); got != DefaultConfig().RowMiss {
		t.Fatalf("cold read latency = %v", got)
	}
	done2 := d.Read(done1, 64) // same row: hit
	if got := done2.Sub(done1); got != DefaultConfig().RowHit {
		t.Fatalf("row-hit latency = %v", got)
	}
}

func TestRowConflictReopens(t *testing.T) {
	cfg := noRefresh()
	d := New(cfg)
	done1 := d.Read(0, 0)
	// Same bank, different row: banks = row % nbanks, so row+nbanks maps to
	// the same bank.
	otherRow := cfg.RowSize * uint64(cfg.Banks)
	done2 := d.Read(done1, otherRow)
	if got := done2.Sub(done1); got != cfg.RowMiss {
		t.Fatalf("conflict latency = %v, want %v", got, cfg.RowMiss)
	}
}

func TestBankParallelism(t *testing.T) {
	cfg := noRefresh()
	d := New(cfg)
	// Two requests to different banks at the same instant both finish at
	// RowMiss — no serialization.
	d1 := d.Read(0, 0)
	d2 := d.Read(0, cfg.RowSize) // next row -> next bank
	if d1 != d2 {
		t.Fatalf("different banks serialized: %v vs %v", d1, d2)
	}
}

func TestSameBankSerializes(t *testing.T) {
	cfg := noRefresh()
	d := New(cfg)
	d1 := d.Read(0, 0)
	d2 := d.Read(0, 64) // same row, same bank, issued at same time
	if !d2.After(d1) {
		t.Fatal("same-bank requests must serialize")
	}
}

func TestRefreshStallsRequests(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	// Land a request exactly at the refresh deadline.
	at := sim.Time(cfg.RefreshInterval)
	done := d.Read(at, 0)
	want := at.Add(cfg.RefreshLatency).Add(cfg.RowMiss)
	if done != want {
		t.Fatalf("refresh-stalled read = %v, want %v", done, want)
	}
	_, _, _, refreshes := d.Stats()
	if refreshes == 0 {
		t.Fatal("no refresh recorded")
	}
}

func TestRefreshCountGrowsWithTime(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	// Touch the DIMM after a long idle period; all elapsed refreshes are
	// accounted for (they power the refresh-energy model).
	d.Read(sim.Time(sim.Millisecond), 0)
	_, _, _, refreshes := d.Stats()
	want := uint64(sim.Millisecond / cfg.RefreshInterval)
	if refreshes < want-2 || refreshes > want+2 {
		t.Fatalf("refreshes = %d, want ~%d", refreshes, want)
	}
}

// Property: completion time never precedes request time and never exceeds
// request + refresh + rowmiss for an idle bank.
func TestLatencyBoundsProperty(t *testing.T) {
	cfg := DefaultConfig()
	f := func(addrs []uint32) bool {
		d := New(cfg)
		now := sim.Time(0)
		for _, a := range addrs {
			done := d.Read(now, uint64(a))
			if done.Before(now) {
				return false
			}
			now = done.Add(sim.Nanosecond)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroBanksDefaulted(t *testing.T) {
	cfg := noRefresh()
	cfg.Banks = 0
	d := New(cfg)
	if len(d.banks) != 1 {
		t.Fatal("zero banks should default to 1")
	}
}
