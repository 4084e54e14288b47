package lightpc_test

import (
	"encoding/json"
	"hash/fnv"
	"testing"

	lightpc "repro"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestFullSizePSMResultsPinned pins full-size OC-PMEM runs: each spec runs
// at 200k references with the seed the repository benchmark's oc-pmem
// workload gives it, on LightPC and on LightPC-B. The goldens run at quick
// sample sizes and stay byte-identical when a PRAM device's cooling-window
// arena changes the points at which it prunes (linetab.Flight drops
// windows that a later query still falls into); these runs do not.
// Starting the arena at 32 slots instead of 64 moves the SNAP and KeyDB
// digests and no golden.
//
// Each run has two digests. The result digest covers the CPU result and
// the PSM's counters. The device digest extends it with the PSM's read and
// write-ack histograms (count, sum, p50, p99) and every DIMM's nvdimm and
// PRAM counters, so a device-stack rewrite that moved work between layers
// without moving the end result still fails.
func TestFullSizePSMResultsPinned(t *testing.T) {
	type pin struct{ result, device uint64 }
	want := map[lightpc.Kind]map[string]pin{
		lightpc.LightPCFull: {
			"bzip2": {0x90282f206b3f406, 0x39689cbb72dcfe14},
			"SNAP":  {0x7f186075576a7309, 0x77edfe7c6acabb3e},
			"KeyDB": {0xa5d4d0968c967e01, 0xf83982e40559a985},
		},
		lightpc.LightPCB: {
			"bzip2": {0xc3dc01385fc457e0, 0xbfce360e4419929},
			"SNAP":  {0x9a0d54c3e28b02dd, 0x69b9245553e007b4},
			"KeyDB": {0x7a0d62e5f164b9f1, 0x5b032ce0b436a83f},
		},
	}
	for _, kind := range []lightpc.Kind{lightpc.LightPCFull, lightpc.LightPCB} {
		for _, name := range []string{"bzip2", "SNAP", "KeyDB"} {
			spec, ok := workload.ByName(name)
			if !ok {
				t.Fatalf("no spec %q", name)
			}
			cfg := lightpc.DefaultConfig(kind)
			cfg.SampleOps = 200_000
			cfg.Seed = sim.SubSeed(1, "run/"+name)
			p := lightpc.New(cfg)
			res := p.Run(spec).Result
			h := fnv.New64a()
			enc := json.NewEncoder(h)
			encode := func(v any) {
				if err := enc.Encode(v); err != nil {
					t.Fatal(err)
				}
			}
			encode(res)
			encode(p.PSM().Stats())
			got := pin{result: h.Sum64()}
			for _, lat := range []*sim.LatencyHistogram{p.PSM().ReadLatency(), p.PSM().WriteAckLatency()} {
				encode([]int64{int64(lat.Count()), int64(lat.Sum()), int64(lat.Percentile(50)), int64(lat.Percentile(99))})
			}
			for _, d := range p.PSM().DIMMs() {
				reads, writes, reconstructs, rmw, corrupt := d.Stats()
				encode([]uint64{reads, writes, reconstructs, rmw, corrupt})
				for _, dev := range d.Devices() {
					reads, writes, conflicts, errors := dev.Stats()
					encode([]uint64{reads, writes, conflicts, errors})
				}
			}
			got.device = h.Sum64()
			if w := want[kind][name]; got != w {
				t.Errorf("%v %s: digests result %#x device %#x, want %#x and %#x",
					kind, name, got.result, got.device, w.result, w.device)
			}
		}
	}
}
