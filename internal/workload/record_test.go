package workload_test

import (
	"slices"
	"testing"

	"repro/internal/cpu"
	"repro/internal/trace"
	"repro/internal/workload"
)

// digestible is what workload.StreamDigest drains.
type digestible interface {
	workload.Generator
	workload.BatchSource
	Stats() trace.Stats
}

// TestReplayMatchesGenerator pins that a replay is indistinguishable from
// its source: for every Table II spec's Fanout, single- and multi-threaded,
// and for an empty one, each replayed stream has the source generator's
// name and digest (every ref, Remaining after each call, final Stats).
func TestReplayMatchesGenerator(t *testing.T) {
	const cores = 8
	for _, ops := range []uint64{0, 20_000} {
		for _, s := range workload.Table2() {
			src := cpu.Fanout(s, cores, ops, 2)
			want := make([]uint64, len(src))
			for i, g := range src {
				want[i] = workload.StreamDigest(g.(digestible))
			}
			rec := workload.Record(cpu.Fanout(s, cores, ops, 2), nil)
			// Two replays of one recording are independent of each other.
			for pass, reps := range [][]workload.Generator{rec.Generators(), rec.Generators()} {
				if len(reps) != len(src) {
					t.Fatalf("%s/%d: %d replays of %d generators", s.Name, ops, len(reps), len(src))
				}
				for i, r := range reps {
					if r.Name() != src[i].Name() {
						t.Errorf("%s/%d stream %d: replay named %q, source %q", s.Name, ops, i, r.Name(), src[i].Name())
					}
					if got := workload.StreamDigest(r.(digestible)); got != want[i] {
						t.Errorf("%s/%d stream %d pass %d: replay digest %#x, source %#x", s.Name, ops, i, pass, got, want[i])
					}
				}
			}
		}
	}
	if gens := workload.Record(nil, nil).Generators(); len(gens) != 0 {
		t.Errorf("a recording of no generators replays %d streams", len(gens))
	}
}

// TestRecordReusesBuffer pins that a buffer large enough for the streams
// is filled in place, which is what lets callers recycle it.
func TestRecordReusesBuffer(t *testing.T) {
	s := workload.Table2()[0]
	buf := make([]workload.Ref, 0, 30_000)
	rec := workload.Record(cpu.Fanout(s, 8, 8_000, 1), buf)
	if got := rec.Buffer(); cap(got) != cap(buf) || &got[:1][0] != &buf[:1][0] {
		t.Errorf("Record reallocated a buffer of capacity %d for %d refs", cap(buf), len(got))
	}
}

// FuzzReplay drives a replay and a fresh copy of its source in lockstep
// through a drawn sequence of batch sizes (0 is one Next call) and requires
// the same references, the same Remaining after every call, and, once
// drained, the same name and Stats.
func FuzzReplay(f *testing.F) {
	f.Add(uint8(0), uint16(1000), uint64(1), []byte{0, 1, 64, 3})
	f.Add(uint8(3), uint16(0), uint64(2), []byte{1})
	f.Add(uint8(13), uint16(4096), uint64(7), []byte{0, 0, 1, 200, 17})

	f.Fuzz(func(t *testing.T, spec uint8, samples uint16, seed uint64, sizes []byte) {
		specs := workload.Table2()
		s := specs[int(spec)%len(specs)]
		ops := uint64(samples % 8192)
		if len(sizes) == 0 {
			sizes = []byte{0, 1}
		}
		src := cpu.Fanout(s, 8, ops, seed)
		reps := workload.Record(cpu.Fanout(s, 8, ops, seed), nil).Generators()
		var a, b [workload.DefaultBatchSize]workload.Ref
		for i, g := range src {
			r := reps[i]
			if r.Remaining() != g.Remaining() {
				t.Fatalf("stream %d: replay starts with %d refs, source %d", i, r.Remaining(), g.Remaining())
			}
			for call := 0; ; call++ {
				sz := int(sizes[call%len(sizes)]) % (workload.DefaultBatchSize + 1)
				var n, m int
				if sz == 0 {
					ra, oka := r.Next()
					rb, okb := g.Next()
					if oka != okb || ra != rb {
						t.Fatalf("stream %d call %d: replay Next = %+v, %v; source %+v, %v", i, call, ra, oka, rb, okb)
					}
					if !oka {
						break
					}
				} else {
					n = workload.FillBatch(r, a[:sz])
					m = workload.FillBatch(g, b[:sz])
					if !slices.Equal(a[:n], b[:m]) {
						t.Fatalf("stream %d call %d: replay batch %v, source %v", i, call, a[:n], b[:m])
					}
					if n == 0 {
						break
					}
				}
				if r.Remaining() != g.Remaining() {
					t.Fatalf("stream %d call %d: replay has %d refs left, source %d", i, call, r.Remaining(), g.Remaining())
				}
			}
			if r.Name() != g.Name() {
				t.Fatalf("stream %d: replay named %q, source %q", i, r.Name(), g.Name())
			}
			if rs, gs := r.(digestible).Stats(), g.(digestible).Stats(); rs != gs {
				t.Fatalf("stream %d: replay Stats %+v, source %+v", i, rs, gs)
			}
		}
	})
}
