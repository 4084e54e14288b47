package workload

import (
	"testing"
	"unsafe"

	"repro/internal/trace"
)

// batchEquals drives two identically-constructed generators — one through
// Next, one through NextBatch calls of awkward sizes interleaved with Next
// calls — and requires identical reference sequences, Remaining
// trajectories, and final Stats.
func batchEquals(t *testing.T, name string, mk func() Generator) {
	t.Helper()
	serial := mk()
	batched := mk()
	bs, ok := batched.(BatchSource)
	if !ok {
		t.Fatalf("%s: generator does not implement BatchSource", name)
	}

	// Deliberately odd sizes so batches straddle every internal phase
	// boundary (STREAM element expansion, read/write mix switches, ...);
	// a 0 is a single Next call on the same generator.
	sizes := []int{1, 3, 0, 7, 64, 0, 0, 2, 128, 5}
	var buf [128]Ref
	var got []Ref
	for si := 0; ; si++ {
		if sz := sizes[si%len(sizes)]; sz == 0 {
			r, ok := batched.Next()
			if !ok {
				break
			}
			got = append(got, r)
		} else {
			n := bs.NextBatch(buf[:sz])
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
	}

	var want []Ref
	for {
		r, ok := serial.Next()
		if !ok {
			break
		}
		want = append(want, r)
	}

	if len(got) != len(want) {
		t.Fatalf("%s: batched emitted %d refs, serial %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: ref %d diverged: batched %+v, serial %+v", name, i, got[i], want[i])
		}
	}
	if br, sr := batched.Remaining(), serial.Remaining(); br != sr || br != 0 {
		t.Fatalf("%s: Remaining after drain: batched %d, serial %d", name, br, sr)
	}

	type statser interface{ Stats() trace.Stats }
	if sg, ok := serial.(statser); ok {
		bg := batched.(statser)
		if sg.Stats() != bg.Stats() {
			t.Fatalf("%s: stats diverged: batched %+v, serial %+v", name, bg.Stats(), sg.Stats())
		}
	}
}

func TestNextBatchMatchesNext(t *testing.T) {
	spec, _ := ByName("bzip2")
	mt, _ := ByName("Redis")
	cases := []struct {
		name string
		mk   func() Generator
	}{
		{"synthetic", func() Generator { return NewSynthetic(spec, 3000, 7) }},
		{"synthetic-multithread", func() Generator { return NewSynthetic(mt, 3000, 9) }},
		{"background", func() Generator { return NewBackground(2500, 11) }},
		{"stream-copy", func() Generator { return NewStream(Copy, 1000) }},
		{"stream-triad", func() Generator { return NewStream(Triad, 1000) }},
	}
	for _, c := range cases {
		batchEquals(t, c.name, c.mk)
	}
}

// FillBatch must behave the same whether or not the generator implements
// BatchSource.
func TestFillBatchFallback(t *testing.T) {
	spec := mustSpecB(t, "mcf")
	native := NewSynthetic(spec, 500, 5)
	wrapped := nextOnly{NewSynthetic(spec, 500, 5)}

	var a, b [17]Ref
	for {
		na := FillBatch(native, a[:])
		nb := FillBatch(wrapped, b[:])
		if na != nb {
			t.Fatalf("fill lengths diverged: %d vs %d", na, nb)
		}
		if na == 0 {
			break
		}
		for i := 0; i < na; i++ {
			if a[i] != b[i] {
				t.Fatalf("ref %d diverged: %+v vs %+v", i, a[i], b[i])
			}
		}
	}
}

// nextOnly hides the BatchSource implementation to force the fallback.
type nextOnly struct{ g Generator }

func (n nextOnly) Name() string      { return n.g.Name() }
func (n nextOnly) Next() (Ref, bool) { return n.g.Next() }
func (n nextOnly) Remaining() uint64 { return n.g.Remaining() }

func mustSpecB(t *testing.T, name string) Spec {
	t.Helper()
	s, ok := ByName(name)
	if !ok {
		t.Fatalf("unknown spec %q", name)
	}
	return s
}

// TestRefSize pins the reference record at 32 bytes: trace.Access packs
// into 16 (Addr, Size, Op), so a core's 64-reference batch is 2 KB.
func TestRefSize(t *testing.T) {
	if a, r := unsafe.Sizeof(trace.Access{}), unsafe.Sizeof(Ref{}); a != 16 || r != 32 {
		t.Fatalf("sizeof trace.Access = %d, Ref = %d; want 16 and 32", a, r)
	}
}
