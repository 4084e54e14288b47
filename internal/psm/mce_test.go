package psm

import (
	"testing"

	"repro/internal/nvdimm"
	"repro/internal/sim"
)

// corruptingConfig injects corruption on every read with no XCC, so every
// read escalates past the first containment level.
func corruptingConfig(policy MCEPolicy) Config {
	cfg := BaselineConfig()
	cfg.NVDIMM.Device.BitErrorPerRead = 1.0
	cfg.MCE = policy
	return cfg
}

func TestMCEPolicyNames(t *testing.T) {
	if MCEReset.String() != "reset" || MCERetry.String() != "retry" ||
		MCEPoison.String() != "poison" {
		t.Fatal("policy names wrong")
	}
	if MCEPolicy(9).String() == "" {
		t.Fatal("unknown policy name empty")
	}
}

func TestMCEResetPolicy(t *testing.T) {
	p := New(corruptingConfig(MCEReset))
	// Leave buffered state so the reset is observable.
	p.Read(0, 7)
	resets, _, _ := p.MCECounters()
	if mces := p.Stats().MCEs; mces != 1 || resets != 1 {
		t.Fatalf("mces=%d resets=%d", mces, resets)
	}
}

func TestMCERetryPolicyClearsTransients(t *testing.T) {
	cfg := BaselineConfig()
	// Dual-channel so a line read touches two devices, not the whole
	// rank, keeping the per-line corruption rate moderate.
	cfg.NVDIMM.Layout = nvdimm.DualChannel
	cfg.NVDIMM.Device.BitErrorPerRead = 0.3 // transient: retries often clear
	cfg.MCE = MCERetry
	cfg.Seed = 3
	p := New(cfg)
	now := sim.Time(0)
	for i := uint64(0); i < 400; i++ {
		now = p.Read(now, i*977)
	}
	_, retries, _ := p.MCECounters()
	if retries == 0 {
		t.Fatal("no retries attempted")
	}
	// A retry clears ~half the corruptions, so MCEs < retries.
	if mces := p.Stats().MCEs; mces >= retries {
		t.Fatalf("retry policy never helped: mces=%d retries=%d", mces, retries)
	}
}

func TestMCEPoisonPolicy(t *testing.T) {
	p := New(corruptingConfig(MCEPoison))
	p.Read(0, 42)
	if !p.Poisoned(42) {
		t.Fatal("line not poisoned")
	}
	if p.Poisoned(43) {
		t.Fatal("wrong line poisoned")
	}
	// A later read of the poisoned line faults again without touching
	// media.
	before := p.Stats().Reads
	p.Read(sim.Time(sim.Millisecond), 42)
	if mces := p.Stats().MCEs; mces != 2 {
		t.Fatalf("mces = %d, want 2", mces)
	}
	if p.Stats().Reads != before+1 {
		t.Fatal("poisoned read not counted")
	}
	_, _, poisons := p.MCECounters()
	if poisons != 1 {
		t.Fatalf("poisons = %d", poisons)
	}
	// The reset policy was never invoked.
	resets, _, _ := p.MCECounters()
	if resets != 0 {
		t.Fatal("poison policy must not reset")
	}
}

func TestSymbolECCCoversXCCGaps(t *testing.T) {
	// Section VIII hybrid: corruption with no XCC is repaired by the
	// symbol code instead of faulting.
	cfg := BaselineConfig() // no XCC
	cfg.NVDIMM.Device.BitErrorPerRead = 1.0
	cfg.SymbolECC = true
	cfg.SymbolDecodeLatency = sim.FromNanoseconds(200)
	p := New(cfg)
	done := p.Read(0, 5)
	if p.Stats().MCEs != 0 {
		t.Fatal("symbol ECC should prevent the MCE")
	}
	s := p.Stats()
	if s.SymbolCorrected != 1 {
		t.Fatalf("SymbolCorrected = %d", s.SymbolCorrected)
	}
	// The decode latency is on the read path.
	clean := New(BaselineConfig())
	cleanDone := clean.Read(0, 5)
	if done.Sub(0) < cleanDone.Sub(0)+cfg.SymbolDecodeLatency {
		t.Fatalf("symbol decode latency not charged: %v vs %v",
			done.Sub(0), cleanDone.Sub(0))
	}
}

func TestSymbolECCSecondaryToXCC(t *testing.T) {
	// With XCC available and a moderate error rate, XCC takes the common
	// case and the symbol path only handles the rare parity-also-damaged
	// faults.
	cfg := DefaultConfig()
	cfg.NVDIMM.Device.BitErrorPerRead = 0.2
	cfg.SymbolECC = true
	cfg.SymbolDecodeLatency = sim.FromNanoseconds(200)
	cfg.Seed = 11
	p := New(cfg)
	now := sim.Time(0)
	for i := uint64(0); i < 500; i++ {
		now = p.Read(now, i*1000)
	}
	s := p.Stats()
	if s.ContainedErrors == 0 {
		t.Fatalf("XCC never used: %+v", s)
	}
	if s.SymbolCorrected >= s.ContainedErrors {
		t.Fatalf("symbol path not secondary: %+v", s)
	}
	if s.MCEs != 0 {
		t.Fatalf("hybrid left %d MCEs", s.MCEs)
	}
}
