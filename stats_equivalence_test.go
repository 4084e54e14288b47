package lightpc_test

// Stats-equivalence pin: a fixed-seed scenario drives the pram, psm, and
// memctrl hot paths and asserts their Stats() counters — and, for the PSM,
// the obs-registered counter views sampled from them — against values captured
// before the device metadata moved from Go maps onto internal/linetab's
// paged tables. The numbers are part of the test: any change to per-access
// bookkeeping (a missed conflict, a double-counted row-buffer hit, a
// diverged wear count) shows up as a counter drift here even when the
// timing goldens still agree.

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/obs"
	"repro/internal/pmemdimm"
	"repro/internal/pram"
	"repro/internal/psm"
	"repro/internal/sim"
)

// checkView asserts that the obs registry's sampled view of a counter
// matches the raw stats value.
func checkView(t *testing.T, r *obs.Registry, name string, want uint64) {
	t.Helper()
	m := r.Lookup(name)
	if m == nil {
		t.Fatalf("metric %s not registered", name)
	}
	if got := m.Value(); got != float64(want) {
		t.Errorf("obs view %s = %v, stats say %d", name, got, want)
	}
}

func TestPRAMStatsEquivalence(t *testing.T) {
	cfg := pram.DefaultConfig()
	cfg.TrackWear = true
	cfg.BitErrorPerRead = 0.01
	cfg.Seed = 11
	d := pram.NewDevice(cfg)

	rng := sim.NewRNG(101)
	now := sim.Time(0)
	var drain sim.Time
	for i := 0; i < 50000; i++ {
		now = now.Add(sim.Duration(rng.Uint64n(uint64(cfg.WriteLatency))))
		row := rng.Uint64n(512)
		if rng.Bool(0.6) {
			done, _, _ := d.Read(now, row)
			_ = done
		} else {
			d.Write(now, row)
		}
		drain = d.Drain(now)
	}
	if drain < now {
		t.Fatalf("Drain %v precedes now %v", drain, now)
	}

	reads, writes, conflicts, errors := d.Stats()
	maxRow, maxCount := d.MaxWear()
	pinned := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"reads", reads, 29937},
		{"writes", writes, 20063},
		{"conflicts", conflicts, 58},
		{"errors", errors, 314},
		{"touched-rows", uint64(d.TouchedRows()), 512},
		{"max-wear-row", maxRow, 377},
		{"max-wear-count", maxCount, 56},
	}
	for _, p := range pinned {
		if p.got != p.want {
			t.Errorf("pram %s = %d, pinned pre-conversion value %d", p.name, p.got, p.want)
		}
	}
}

func TestPSMStatsEquivalence(t *testing.T) {
	cfg := psm.DefaultConfig()
	cfg.Seed = 7
	cfg.NVDIMM.Device.BitErrorPerRead = 0.002
	cfg.NVDIMM.Device.TrackWear = true
	cfg.WearLevelLines = 1 << 14
	cfg.MCE = psm.MCEPoison
	p := psm.New(cfg)
	reg := obs.NewRegistry()
	p.RegisterMetrics(reg, "psm_")

	rng := sim.NewRNG(42)
	now := sim.Time(0)
	for i := 0; i < 40000; i++ {
		line := rng.Uint64n(1 << 13)
		if rng.Bool(0.5) {
			now = p.Read(now, line)
		} else {
			now = p.Write(now, line)
		}
		if i%4096 == 4095 {
			now = p.Flush(now)
		}
	}

	st := p.Stats()
	pinned := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"psm_reads_total", st.Reads, 20012},
		{"psm_writes_total", st.Writes, 19988},
		{"psm_rowbuffer_hits_total", st.RowBufferHits, 1776},
		{"psm_rowbuffer_serves_total", st.RowBufferServes, 133},
		{"psm_reconstructs_total", st.Reconstructs, 2},
		{"psm_blocked_reads_total", st.BlockedReads, 0},
		{"psm_media_writes_total", st.MediaWrites, 19814},
		{"psm_mces_total", st.MCEs, 0},
		{"psm_contained_errors_total", st.ContainedErrors, 93},
		{"psm_symbol_corrected_total", st.SymbolCorrected, 0},
		{"psm_wearlevel_moves_total", st.WearLevelMoves, 198},
		{"psm_flushes_total", st.Flushes, 9},
		{"psm_drained_lines_total", st.DrainedOnFlushes, 454},
	}
	for _, pin := range pinned {
		if pin.got != pin.want {
			t.Errorf("psm %s = %d, pinned pre-conversion value %d", pin.name, pin.got, pin.want)
		}
		checkView(t, reg, pin.name, pin.got)
	}

	resets, retries, poisons := p.MCECounters()
	if resets != 0 || retries != 0 || poisons != 0 {
		t.Errorf("MCE counters = (%d, %d, %d), pinned (0, 0, 0)", resets, retries, poisons)
	}
}

func TestNMEMStatsEquivalence(t *testing.T) {
	dc := memctrl.NewDRAMController(2, dram.DefaultConfig(), sim.FromNanoseconds(10))
	pm := pmemdimm.New(pmemdimm.DefaultConfig())
	n := memctrl.NewNMEM(dc, pm, memctrl.NMEMConfig{CacheBlocks: 64})

	rng := sim.NewRNG(9)
	now := sim.Time(0)
	for i := 0; i < 30000; i++ {
		addr := rng.Uint64n(1 << 22)
		if rng.Bool(0.5) {
			now = n.Read(now, addr)
		} else {
			now = n.Write(now, addr)
		}
	}

	hits, misses, writebacks := n.Stats()
	pinned := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"hits", hits, 1822},
		{"misses", misses, 28178},
		{"writebacks", writebacks, 14612},
	}
	for _, p := range pinned {
		if p.got != p.want {
			t.Errorf("nmem %s = %d, pinned pre-conversion value %d", p.name, p.got, p.want)
		}
	}
}
