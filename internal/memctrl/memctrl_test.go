package memctrl

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/pmemdimm"
	"repro/internal/psm"
	"repro/internal/sim"
)

func noRefreshDRAM() dram.Config {
	cfg := dram.DefaultConfig()
	cfg.RefreshInterval = 0
	return cfg
}

func TestDRAMControllerInterleaves(t *testing.T) {
	c := NewDRAMController(4, noRefreshDRAM(), 0)
	// Lines 0..3 land on distinct DIMMs -> identical completion times.
	var ends []sim.Time
	for i := uint64(0); i < 4; i++ {
		ends = append(ends, c.Read(0, i*64))
	}
	for _, e := range ends {
		if e != ends[0] {
			t.Fatalf("interleaving broken: %v", ends)
		}
	}
	r, _, _, _ := c.Stats()
	if r != 4 {
		t.Fatalf("reads = %d", r)
	}
	if len(c.DIMMs()) != 4 {
		t.Fatal("DIMMs accessor broken")
	}
}

func TestDRAMControllerLatency(t *testing.T) {
	lat := 10 * sim.Nanosecond
	c := NewDRAMController(1, noRefreshDRAM(), lat)
	done := c.Read(0, 0)
	want := sim.Time(0).Add(lat + noRefreshDRAM().RowMiss)
	if done != want {
		t.Fatalf("latency = %v, want %v", done.Sub(0), want.Sub(0))
	}
}

func TestDRAMControllerZeroDIMMsDefaulted(t *testing.T) {
	c := NewDRAMController(0, noRefreshDRAM(), 0)
	if len(c.DIMMs()) != 1 {
		t.Fatal("zero DIMMs should default to 1")
	}
}

func TestPSMBackendRoutesLines(t *testing.T) {
	p := psm.New(psm.DefaultConfig())
	b := &PSMBackend{PSM: p}
	b.Write(0, 128)
	b.Read(sim.Time(sim.Microsecond), 128)
	s := p.Stats()
	if s.Writes != 1 || s.Reads != 1 {
		t.Fatalf("psm stats = %+v", s)
	}
}

func TestPMEMBackendAddsDAX(t *testing.T) {
	d := pmemdimm.New(pmemdimm.DefaultConfig())
	b := &PMEMBackend{DIMM: d, DAXLatency: 7 * sim.Nanosecond}
	done := b.Read(0, 0)
	d2 := pmemdimm.New(pmemdimm.DefaultConfig())
	raw := d2.Read(0, 0)
	if done.Sub(0) != raw.Sub(0)+7*sim.Nanosecond {
		t.Fatalf("DAX latency not applied: %v vs %v", done.Sub(0), raw.Sub(0))
	}
}

func newNMEM(blocks uint64) *NMEM {
	d := NewDRAMController(2, noRefreshDRAM(), 0)
	p := pmemdimm.New(pmemdimm.DefaultConfig())
	return NewNMEM(d, p, NMEMConfig{CacheBlocks: blocks})
}

func TestNMEMHitIsDRAMSpeed(t *testing.T) {
	n := newNMEM(16)
	first := n.Read(0, 0) // miss: fills the near cache
	second := n.Read(first, 0)
	if second.Sub(first) > noRefreshDRAM().RowMiss {
		t.Fatalf("near-cache hit too slow: %v", second.Sub(first))
	}
	hits, misses, _ := n.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits/misses = %d/%d", hits, misses)
	}
}

func TestNMEMSnarfOverlap(t *testing.T) {
	// A miss costs max(DRAM, PMEM), not the sum.
	n := newNMEM(16)
	done := n.Read(0, 0)
	dOnly := NewDRAMController(2, noRefreshDRAM(), 0).Read(0, 0)
	pOnly := pmemdimm.New(pmemdimm.DefaultConfig()).Read(0, 0)
	maxT := sim.Max(dOnly, pOnly)
	if done != maxT {
		t.Fatalf("snarf overlap broken: miss=%v want max(%v,%v)",
			done.Sub(0), dOnly.Sub(0), pOnly.Sub(0))
	}
}

func TestNMEMDirtyWriteback(t *testing.T) {
	n := newNMEM(1) // single set: every new block conflicts
	now := n.Write(0, 0)
	n.Read(now, 4096) // evicts dirty block 0
	_, _, wbs := n.Stats()
	if wbs != 1 {
		t.Fatalf("writebacks = %d", wbs)
	}
}

func TestNMEMCleanEvictionSkipsWriteback(t *testing.T) {
	n := newNMEM(1)
	now := n.Read(0, 0)
	n.Read(now, 4096)
	_, _, wbs := n.Stats()
	if wbs != 0 {
		t.Fatalf("clean eviction wrote back: %d", wbs)
	}
}

func TestNMEMDefaultBlocks(t *testing.T) {
	d := NewDRAMController(1, noRefreshDRAM(), 0)
	p := pmemdimm.New(pmemdimm.DefaultConfig())
	n := NewNMEM(d, p, NMEMConfig{})
	if n.sets.N() != 1<<15 {
		t.Fatal("default CacheBlocks not applied")
	}
}
