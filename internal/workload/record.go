package workload

import (
	"slices"

	"repro/internal/trace"
)

// Recorded streams. The paper's headline comparisons run one program on
// several systems (Fig 4's persistence modes, LegacyPC / LightPC-B /
// LightPC), and the harnesses give those runs one seed so every system sees
// the identical stream. A Recording drains such a generator set once and
// hands out replays, so the comparison pays for one generation instead of
// one per system. A replay emits exactly its source's references and
// Remaining, and reports the source's final Stats, so a run driven by
// replays returns what the same run on the source generators would.

// Recording is a generator set drained once: every stream's references
// back to back in one caller-owned buffer, with each generator's name and
// final Stats.
type Recording struct {
	refs    []Ref
	streams []recorded
}

// recorded is one drained generator: its references are
// Recording.refs[start:end].
type recorded struct {
	name       string
	start, end int
	stats      trace.Stats
}

// Record drains every generator of gens into buf's backing array, growing
// it when it is too small, and returns the recording. buf's contents are
// overwritten, and the recording reads them until the caller reuses the
// buffer: Buffer hands back the (possibly grown) array for that.
func Record(gens []Generator, buf []Ref) *Recording {
	total := 0
	for _, g := range gens {
		total += int(g.Remaining())
	}
	refs := slices.Grow(buf[:0], total)
	rec := &Recording{streams: make([]recorded, len(gens))}
	for i, g := range gens {
		start := len(refs)
		for {
			if len(refs) == cap(refs) {
				if g.Remaining() == 0 {
					break
				}
				refs = slices.Grow(refs, DefaultBatchSize)
			}
			n := FillBatch(g, refs[len(refs):cap(refs)])
			if n == 0 {
				break
			}
			refs = refs[:len(refs)+n]
		}
		s := recorded{name: g.Name(), start: start, end: len(refs)}
		if sg, ok := g.(interface{ Stats() trace.Stats }); ok {
			s.stats = sg.Stats()
		}
		rec.streams[i] = s
	}
	rec.refs = refs
	return rec
}

// Buffer returns the recording's backing array, for the caller to reuse
// once no replay of the recording is still being read.
func (r *Recording) Buffer() []Ref { return r.refs }

// Generators returns one fresh replay per recorded stream, in the order of
// the generators Record drained. Each replay implements Generator,
// BatchSource and Stats, starts at its stream's first reference, and may be
// drained independently of every other replay of the recording.
func (r *Recording) Generators() []Generator {
	reps := make([]replay, len(r.streams))
	gens := make([]Generator, len(r.streams))
	for i, s := range r.streams {
		reps[i] = replay{name: s.name, refs: r.refs[s.start:s.end:s.end], stats: s.stats}
		gens[i] = &reps[i]
	}
	return gens
}

// replay emits one recorded stream.
type replay struct {
	name  string
	refs  []Ref // the references not yet emitted
	stats trace.Stats
}

// Name reports the source generator's name.
func (r *replay) Name() string { return r.name }

// Next emits the next recorded reference.
func (r *replay) Next() (Ref, bool) {
	if len(r.refs) == 0 {
		return Ref{}, false
	}
	ref := r.refs[0]
	r.refs = r.refs[1:]
	return ref, true
}

// NextBatch copies the next recorded references into buf.
//
//lightpc:zeroalloc
func (r *replay) NextBatch(buf []Ref) int {
	n := copy(buf, r.refs)
	r.refs = r.refs[n:]
	return n
}

// Remaining reports how many recorded references are left.
//
//lightpc:zeroalloc
func (r *replay) Remaining() uint64 { return uint64(len(r.refs)) }

// Stats reports the source generator's Stats once it was drained: what a
// run reads after the stream ends.
func (r *replay) Stats() trace.Stats { return r.stats }
