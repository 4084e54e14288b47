package lightpc

import (
	"testing"

	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/workload"
)

func mustSpec(t *testing.T, name string) workload.Spec {
	t.Helper()
	s, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("missing workload %s", name)
	}
	return s
}

func TestKindNames(t *testing.T) {
	if LegacyPC.String() != "LegacyPC" || LightPCB.String() != "LightPC-B" ||
		LightPCFull.String() != "LightPC" {
		t.Fatal("kind names wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind name empty")
	}
}

func TestPlatformAssembly(t *testing.T) {
	legacy := New(DefaultConfig(LegacyPC))
	if legacy.PSM() != nil || legacy.DRAM() == nil {
		t.Fatal("LegacyPC should be DRAM-backed")
	}
	if legacy.Kernel().ProcBank().Persistent() {
		t.Fatal("LegacyPC procs must be volatile")
	}
	light := New(DefaultConfig(LightPCFull))
	if light.PSM() == nil || light.DRAM() != nil {
		t.Fatal("LightPC should be PSM-backed")
	}
	if !light.Kernel().ProcBank().Persistent() {
		t.Fatal("LightPC procs must be persistent")
	}
	if !light.PSM().Config().XCC {
		t.Fatal("LightPC must enable XCC")
	}
	b := New(DefaultConfig(LightPCB))
	if b.PSM().Config().XCC || b.PSM().Config().EarlyReturn {
		t.Fatal("LightPC-B must disable XCC and early-return")
	}
}

func TestRunProducesResults(t *testing.T) {
	cfg := DefaultConfig(LightPCFull)
	cfg.SampleOps = 20_000
	p := New(cfg)
	res := p.Run(mustSpec(t, "AES"))
	// 20k main refs plus the ambient kernel-thread traffic on idle cores.
	if res.MemOps < 20_000 || res.Elapsed <= 0 {
		t.Fatalf("run result: %+v", res)
	}
	if res.AvgPowerW <= 0 || res.EnergyJ <= 0 {
		t.Fatal("power/energy not accounted")
	}
	if res.Workload != "AES" {
		t.Fatal("workload name lost")
	}
}

func TestLightPCWithinTwentyPercentOfLegacy(t *testing.T) {
	// Figure 15's headline: LightPC is only ~12% slower than the
	// DRAM-only LegacyPC.
	run := func(kind Kind) sim.Duration {
		cfg := DefaultConfig(kind)
		cfg.SampleOps = 60_000
		return New(cfg).Run(mustSpec(t, "gcc")).Elapsed
	}
	legacy := run(LegacyPC)
	light := run(LightPCFull)
	ratio := float64(light) / float64(legacy)
	if ratio < 1.0 || ratio > 1.35 {
		t.Fatalf("LightPC/LegacyPC = %.2f, want ~1.12", ratio)
	}
}

func TestLightPCBeatsBaseline(t *testing.T) {
	// Figure 15: LightPC is ~2.8× faster than LightPC-B on average; the
	// gap must be clear on a write-heavy, RAW-heavy workload.
	run := func(kind Kind) sim.Duration {
		cfg := DefaultConfig(kind)
		cfg.SampleOps = 60_000
		return New(cfg).Run(mustSpec(t, "astar")).Elapsed
	}
	b := run(LightPCB)
	full := run(LightPCFull)
	if float64(b)/float64(full) < 1.5 {
		t.Fatalf("LightPC-B/LightPC = %.2f, want a clear win", float64(b)/float64(full))
	}
}

func TestPowerGapMatchesPaper(t *testing.T) {
	cfg := DefaultConfig(LightPCFull)
	cfg.SampleOps = 10_000
	light := New(cfg).Run(mustSpec(t, "Redis"))
	lcfg := DefaultConfig(LegacyPC)
	lcfg.SampleOps = 10_000
	legacy := New(lcfg).Run(mustSpec(t, "Redis"))
	ratio := light.AvgPowerW / legacy.AvgPowerW
	if ratio < 0.2 || ratio > 0.4 {
		t.Fatalf("power ratio = %.2f, want ~0.28", ratio)
	}
}

func TestPowerFailRecoverCycle(t *testing.T) {
	p := New(DefaultConfig(LightPCFull))
	p.Kernel().Tick(10)
	rep := p.PowerFail(0, power.ATX())
	if !rep.Completed {
		t.Fatalf("SnG did not finish inside the ATX window: %+v", rep)
	}
	grep, err := p.Recover(0)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if grep.ResumedTasks == 0 {
		t.Fatal("nothing resumed")
	}
	p.Kernel().Tick(5) // system is alive again
}

func TestLegacyPowerFailLosesEverything(t *testing.T) {
	p := New(DefaultConfig(LegacyPC))
	p.Kernel().Tick(10)
	// LegacyPC has no SnG-capable memory: Stop still runs, but the DRAM
	// contents are gone afterwards; processes cannot come back.
	p.PowerFail(0, power.ATX())
	if p.Kernel().DRAM.Len() != 0 {
		t.Fatal("DRAM survived power loss")
	}
}

func TestColdBootAfterTornStop(t *testing.T) {
	p := New(DefaultConfig(LightPCFull))
	p.Kernel().Tick(10)
	// A hopeless deadline: Stop cannot finish.
	tiny := power.PSU{Name: "tiny", StoredJ: 0.001, SpecHoldUp: sim.Millisecond}
	rep := p.PowerFail(0, tiny)
	if rep.Completed {
		t.Fatal("Stop completed in 1 ms?")
	}
	if _, err := p.Recover(0); err == nil {
		t.Fatal("recovery from torn stop must fail")
	}
	p.ColdBoot()
	if p.Kernel().RunnableCount() == 0 {
		t.Fatal("cold boot produced a dead system")
	}
}

func TestDefaultConfigTableI(t *testing.T) {
	cfg := DefaultConfig(LightPCFull)
	if cfg.CPU.Cores != 8 {
		t.Fatalf("cores = %d, want 8 (Table I)", cfg.CPU.Cores)
	}
	if cfg.CPU.FreqHz != 4e8 {
		t.Fatalf("freq = %v, want 400 MHz FPGA", cfg.CPU.FreqHz)
	}
	if cfg.PSM.DIMMs != 6 {
		t.Fatalf("DIMMs = %d, want 6", cfg.PSM.DIMMs)
	}
}

func TestPlatformDataStore(t *testing.T) {
	p := New(DefaultConfig(LightPCFull))
	ds := p.DataStore()
	if ds == nil {
		t.Fatal("LightPC has no data store")
	}
	if p.DataStore() != ds {
		t.Fatal("DataStore not memoized")
	}
	payload := make([]byte, 64)
	payload[0] = 0xAB
	now := ds.WriteData(0, 7, payload)
	got, _, err := ds.ReadData(now, 7)
	if err != nil || got[0] != 0xAB {
		t.Fatalf("round trip: %v", err)
	}
	if New(DefaultConfig(LegacyPC)).DataStore() != nil {
		t.Fatal("LegacyPC should have no data store")
	}
}

// TestZeroDRAMRowSizeDefaults checks that a LegacyPC with DRAM.RowSize 0
// runs as if the row size were dram.DefaultConfig's, the way a zero Banks
// falls back to one bank, instead of dividing by zero on the first
// reference.
func TestZeroDRAMRowSizeDefaults(t *testing.T) {
	cfg := DefaultConfig(LegacyPC)
	cfg.SampleOps = 5_000
	want := New(cfg).Run(mustSpec(t, "gcc"))
	cfg.DRAM.RowSize = 0
	got := New(cfg).Run(mustSpec(t, "gcc"))
	if got != want {
		t.Fatalf("RowSize 0 run = %+v, want the default row size's %+v", got, want)
	}
}
