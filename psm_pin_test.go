package lightpc_test

import (
	"encoding/json"
	"hash/fnv"
	"testing"

	lightpc "repro"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestFullSizePSMResultsPinned pins full-size LightPC runs: each spec runs
// at 200k references with the seed the repository benchmark's oc-pmem
// workload gives it, and the digest covers the CPU result and the PSM's
// counters. The goldens run at quick sample sizes and stay byte-identical
// when a PRAM device's cooling-window arena changes the points at which it
// prunes (linetab.Flight drops windows that a later query still falls
// into); these runs do not. Starting the arena at 32 slots instead of 64
// moves the SNAP and KeyDB digests and no golden.
func TestFullSizePSMResultsPinned(t *testing.T) {
	want := map[string]uint64{
		"bzip2": 0x90282f206b3f406,
		"SNAP":  0x7f186075576a7309,
		"KeyDB": 0xa5d4d0968c967e01,
	}
	for _, name := range []string{"bzip2", "SNAP", "KeyDB"} {
		spec, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("no spec %q", name)
		}
		cfg := lightpc.DefaultConfig(lightpc.LightPCFull)
		cfg.SampleOps = 200_000
		cfg.Seed = sim.SubSeed(1, "run/"+name)
		p := lightpc.New(cfg)
		res := p.Run(spec).Result
		h := fnv.New64a()
		enc := json.NewEncoder(h)
		if err := enc.Encode(res); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(p.PSM().Stats()); err != nil {
			t.Fatal(err)
		}
		if got := h.Sum64(); got != want[name] {
			t.Errorf("%s: result digest %#x, want %#x", name, got, want[name])
		}
	}
}
