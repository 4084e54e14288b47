package cpu

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// call is one backend call as recBackend saw it.
type call struct {
	op   trace.Op
	now  sim.Time
	addr uint64
}

// recBackend logs every call and answers now plus the next latency of a
// fixed table, cycling through it. The tables below hold zeros and
// repeated values, so cores meet at equal times and the tie-break decides
// who goes next.
type recBackend struct {
	lat []sim.Duration
	k   int
	log []call
}

func (b *recBackend) serve(op trace.Op, now sim.Time, addr uint64) sim.Time {
	b.log = append(b.log, call{op, now, addr})
	d := b.lat[b.k%len(b.lat)]
	b.k++
	return now.Add(d)
}

func (b *recBackend) Read(now sim.Time, addr uint64) sim.Time {
	return b.serve(trace.OpRead, now, addr)
}

func (b *recBackend) Write(now sim.Time, addr uint64) sim.Time {
	return b.serve(trace.OpWrite, now, addr)
}

// argminRun is the interleave Run must reproduce, written the plain way:
// every step scans all cores for the lowest (now, index), pulls one
// reference with Next, and applies Run's per-reference arithmetic.
func argminRun(cfg Config, start sim.Time, gens []workload.Generator, b *recBackend) Result {
	if cfg.FreqHz <= 0 {
		cfg.FreqHz = 4e8
	}
	now := make([]sim.Time, len(gens))
	done := make([]bool, len(gens))
	for i := range now {
		now[i] = start
	}
	var res Result
	for {
		ci := -1
		for i := range gens {
			if !done[i] && (ci < 0 || now[i].Before(now[ci])) {
				ci = i
			}
		}
		if ci < 0 {
			break
		}
		ref, ok := gens[ci].Next()
		if !ok {
			done[ci] = true
			continue
		}
		instr := ref.ComputeCycles + 1
		res.Instructions += uint64(instr)
		res.MemOps++
		now[ci] = now[ci].Add(sim.Cycles(int64(instr), cfg.FreqHz))
		switch {
		case ref.L1Hit:
			now[ci] = now[ci].Add(sim.Cycles(int64(cfg.HitCycles), cfg.FreqHz))
		case ref.Access.Op == trace.OpRead:
			res.ReadMisses++
			t := b.Read(now[ci], ref.Access.Addr)
			stall := sim.Duration(float64(t.Sub(now[ci])) * cfg.ReadStallOverlap)
			res.StallTime += stall
			now[ci] = now[ci].Add(stall)
		default:
			res.WriteMisses++
			t := b.Write(now[ci], ref.Access.Addr)
			stall := sim.Duration(float64(t.Sub(now[ci])) * cfg.WriteStallOverlap)
			res.StallTime += stall
			now[ci] = now[ci].Add(stall)
		}
	}
	end := start
	for _, t := range now {
		end = sim.Max(end, t)
	}
	res.Elapsed = end.Sub(start)
	res.Cycles = res.Elapsed.ToCycles(cfg.FreqHz)
	for _, g := range gens {
		if sg, ok := g.(interface{ Stats() trace.Stats }); ok {
			st := sg.Stats()
			res.Stats.Merge(&st)
		}
	}
	return res
}

// genSpec describes one core's generator so that Run and the reference
// each get a fresh copy of the same stream.
type genSpec struct {
	kind uint8 // 0 Synthetic, 1 Background, 2 Stream (mostly L1 hits)
	n    uint64
	seed uint64
}

func (g genSpec) build(specs []workload.Spec) workload.Generator {
	switch g.kind % 3 {
	case 0:
		return workload.NewSynthetic(specs[g.seed%uint64(len(specs))], g.n, g.seed)
	case 1:
		return workload.NewBackground(g.n, g.seed)
	default:
		// Stream counts elements; an element is 2 or 3 references.
		return workload.NewStream(workload.Kernels()[g.seed%4], g.n/2)
	}
}

// checkInterleave runs Run and argminRun on the same generators and
// latencies and requires the same backend calls, in order, and the same
// Result.
func checkInterleave(t *testing.T, cores []genSpec, lat []sim.Duration) {
	t.Helper()
	specs := workload.Table2()
	build := func() []workload.Generator {
		gens := make([]workload.Generator, len(cores))
		for i, c := range cores {
			gens[i] = c.build(specs)
		}
		return gens
	}
	cfg := DefaultConfig()
	start := sim.Time(3 * sim.Microsecond)
	got, want := &recBackend{lat: lat}, &recBackend{lat: lat}
	res := Run(cfg, start, build(), got)
	ref := argminRun(cfg, start, build(), want)
	for i := 0; i < min(len(got.log), len(want.log)); i++ {
		if got.log[i] != want.log[i] {
			t.Fatalf("call %d: Run issued %+v, argmin scan %+v", i, got.log[i], want.log[i])
		}
	}
	if len(got.log) != len(want.log) {
		t.Fatalf("Run issued %d backend calls, argmin scan %d", len(got.log), len(want.log))
	}
	if res != ref {
		t.Fatalf("Run result %+v\nargmin scan  %+v", res, ref)
	}
}

// TestInterleaveMatchesArgminScan checks Run's incremental order against
// the scan it replaced: at 1, 2, 3, 5, 8 and 64 cores, with generators of
// unequal length (some empty) and STREAM kernels whose L1 hits never reach
// the backend beside the Table II generators, every backend call (op,
// time, address) and the merged Result must match.
func TestInterleaveMatchesArgminScan(t *testing.T) {
	lats := [][]sim.Duration{
		{0},
		{40 * sim.Nanosecond},
		{0, 25 * sim.Nanosecond, 25 * sim.Nanosecond, 0, 110 * sim.Nanosecond, 25 * sim.Nanosecond},
	}
	rng := sim.NewRNG(7)
	seeded := make([]sim.Duration, 64)
	for i := range seeded {
		seeded[i] = sim.Duration(rng.Uint64n(4)) * 30 * sim.Nanosecond // 0, 30, 60 or 90 ns
	}
	lats = append(lats, seeded)

	for _, n := range []int{1, 2, 3, 5, 8, 64} {
		cores := make([]genSpec, n)
		for i := range cores {
			length := uint64((i*397 + 101) % 900)
			if i%7 == 3 {
				length = 0
			}
			cores[i] = genSpec{kind: uint8(i), n: length, seed: uint64(i + 1)}
		}
		for k, lat := range lats {
			t.Run(fmt.Sprintf("cores=%d/lat=%d", n, k), func(t *testing.T) {
				checkInterleave(t, cores, lat)
			})
		}
	}
}

// FuzzInterleave drives the same comparison over fuzzed core counts,
// generator kinds and lengths, and latency tables: each byte of gens is
// one core (the low two bits pick the kind modulo 3, the rest a length, 0
// an empty stream), and each byte of lats one latency in 10 ns steps.
func FuzzInterleave(f *testing.F) {
	f.Add([]byte{0x04, 0x09, 0x0e}, []byte{0, 3, 3})
	f.Add([]byte{0x02, 0x06, 0x0a, 0x00, 0x12, 0x12, 0x12, 0x12}, []byte{0})
	f.Add([]byte{0xff, 0x01, 0x7d, 0x42, 0x13}, []byte{5, 0, 5, 11, 0, 0})

	f.Fuzz(func(t *testing.T, gens, lats []byte) {
		if len(gens) == 0 || len(gens) > 64 {
			return
		}
		if len(lats) == 0 {
			lats = []byte{0}
		}
		cores := make([]genSpec, len(gens))
		for i, b := range gens {
			cores[i] = genSpec{kind: b & 3, n: uint64(b>>2) * 7, seed: uint64(i + 1)}
		}
		lat := make([]sim.Duration, len(lats))
		for i, b := range lats {
			lat[i] = sim.Duration(b) * 10 * sim.Nanosecond
		}
		checkInterleave(t, cores, lat)
	})
}
