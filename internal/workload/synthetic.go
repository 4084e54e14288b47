package workload

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// Ref is one memory-level reference (an L1 miss reaching the memory
// subsystem) emitted by a generator, plus the compute gap that precedes it.
//
// Table II's read/write columns are headed "Memory": they count the traffic
// the memory subsystem sees. The D$ hit rates determine how many
// instruction-stream references each memory-level reference stands for,
// which the generators fold into ComputeCycles.
type Ref struct {
	Access trace.Access
	// L1Hit marks references that stay in the D$ (used by the
	// instruction-level STREAM generator; the Table II generators emit
	// memory-level refs, so it is false there).
	L1Hit bool
	// ComputeCycles is the pipeline work preceding this reference (the
	// instructions the D$ absorbed).
	ComputeCycles int
}

// Generator produces a finite reference stream for one thread.
type Generator interface {
	// Name identifies the workload.
	Name() string
	// Next returns the next reference; ok is false once the stream ends.
	Next() (r Ref, ok bool)
	// Remaining reports how many references are left.
	Remaining() uint64
}

// ComputePerMemOp is the minimum pipeline work per memory-level reference.
const ComputePerMemOp = 3

// maxComputeCycles caps the compute gap so extremely cache-friendly
// workloads (AES at 99.5% hits) stay finite; it corresponds to the point
// where the workload is simply compute-bound.
const maxComputeCycles = 48

// GapCycles derives the compute gap per memory-level reference from the
// spec's D$ hit rates: a mix-weighted hit rate h means each miss stands for
// 1/(1-h) instruction-stream references.
func GapCycles(s Spec) int {
	total := s.Reads + s.Writes
	if total <= 0 {
		return ComputePerMemOp
	}
	h := (s.Reads*s.DReadHit + s.Writes*s.DWriteHit) / total
	if h >= 1 {
		return maxComputeCycles
	}
	perMiss := 1.0 / (1.0 - h)
	g := int(1.2 * perMiss)
	if g < ComputePerMemOp {
		g = ComputePerMemOp
	}
	if g > maxComputeCycles {
		g = maxComputeCycles
	}
	return g
}

// recentLines is the recent-write ring's capacity.
const recentLines = 256

// recentRing remembers recently written lines so read misses can target
// them — the read-after-write behaviour of Figure 16. Picks are biased
// toward the newest entries (concurrent readers chase fresh writes).
type recentRing struct {
	buf  []uint64
	next int
	full bool
}

// newRecentRing builds a ring of n lines, 0 < n ≤ recentLines.
func newRecentRing(n int) *recentRing { return &recentRing{buf: make([]uint64, n)} }

// push records a written line, overwriting the oldest once the ring is full.
//
//lightpc:zeroalloc
func (r *recentRing) push(line uint64) {
	r.buf[r.next] = line
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// size reports how many lines the ring holds.
//
//lightpc:zeroalloc
func (r *recentRing) size() int {
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// spanDivisors[n] divides by n for every span a pick draws over, so a pick
// is divide-free even while the ring is still filling and its size is not
// a power of two.
var spanDivisors = func() (d [recentLines + 1]sim.Divisor) {
	for n := 1; n <= recentLines; n++ {
		d[n] = sim.NewDivisor(uint64(n))
	}
	return d
}()

// The fixed Bernoulli draws of the generators, as sim.Threshold bounds.
var (
	newestEight = sim.Threshold(0.7)  // a recent-write pick stays in the newest eight
	sequential  = sim.Threshold(0.5)  // a non-RAW read continues the read cursor
	bgRead      = sim.Threshold(0.85) // a background reference is a read
)

// pick returns a recently written line, favouring the newest eight.
//
//lightpc:zeroalloc
func (r *recentRing) pick(rng *sim.RNG) (uint64, bool) {
	n := r.size()
	if n == 0 {
		return 0, false
	}
	span := n
	if span > 8 && rng.Below(newestEight) {
		span = 8
	}
	back := int(spanDivisors[span].Mod(rng.Uint64())) + 1
	idx := r.next - back
	for idx < 0 {
		idx += len(r.buf)
	}
	return r.buf[idx], true
}

// Synthetic is the Table II-driven memory-level trace generator.
type Synthetic struct {
	name string
	rng  sim.RNG

	readsLeft  uint64
	writesLeft uint64
	gap        int

	// rawRead and streamWrite are the spec's RAWFrac and WriteStreamFrac
	// as sim.Threshold bounds.
	rawRead     uint64
	streamWrite uint64

	recent *recentRing

	readCursor  uint64 // always below foot.N()
	writeCursor uint64

	foot  sim.Divisor // footprint in lines
	stats trace.Stats
}

// NewSynthetic builds a generator that emits sampleOps memory-level
// references whose read/write mix matches the spec. Deterministic per seed.
func NewSynthetic(spec Spec, sampleOps uint64, seed uint64) *Synthetic {
	total := spec.Reads + spec.Writes
	if total <= 0 {
		total = 1
	}
	reads := uint64(float64(sampleOps) * spec.Reads / total)
	writes := sampleOps - reads
	footLines := spec.FootprintBytes / trace.CacheLineSize
	if footLines == 0 {
		footLines = 1 << 20
	}
	g := &Synthetic{
		name:        spec.Name,
		rng:         *sim.NewRNG(seed ^ hashName(spec.Name)),
		readsLeft:   reads,
		writesLeft:  writes,
		gap:         GapCycles(spec),
		rawRead:     sim.Threshold(spec.RAWFrac),
		streamWrite: sim.Threshold(spec.WriteStreamFrac),
		recent:      newRecentRing(recentLines),
		foot:        sim.NewDivisor(footLines),
	}
	g.readCursor = g.rng.Uint64n(footLines)
	g.writeCursor = g.rng.Uint64n(footLines)
	return g
}

func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Name reports the workload name.
func (g *Synthetic) Name() string { return g.name }

// Remaining reports how many references are left.
//
//lightpc:zeroalloc
func (g *Synthetic) Remaining() uint64 { return g.readsLeft + g.writesLeft }

// Stats exposes the emitted-traffic characterization.
func (g *Synthetic) Stats() trace.Stats { return g.stats }

const pageLines = 64 // 4 KB of 64 B lines

// Next emits one memory-level reference.
func (g *Synthetic) Next() (Ref, bool) {
	if g.Remaining() == 0 {
		return Ref{}, false
	}
	return g.step(), true
}

// step emits one memory-level reference; the caller guarantees
// Remaining() > 0. Its draws, in order: the read/write pick; for a read,
// the read-after-write trial (and, if it fires on a non-empty ring, the
// recent-write pick), then the sequential trial, then a uniform line; for
// a write, the page-stream trial, then a uniform line.
//
//lightpc:zeroalloc
func (g *Synthetic) step() Ref {
	ref := Ref{Access: trace.Access{Size: trace.CacheLineSize}, ComputeCycles: g.gap}
	var line uint64
	// The read/write pick divides by the references left, which change on
	// every call: the one hardware divide per reference.
	if g.rng.Uint64n(g.readsLeft+g.writesLeft) < g.readsLeft {
		g.readsLeft--
		g.stats.Reads++
		ref.Access.Op = trace.OpRead
		ok := false
		if g.rng.Below(g.rawRead) {
			line, ok = g.recent.pick(&g.rng)
		}
		switch {
		case ok:
		case g.rng.Below(sequential):
			if g.readCursor++; g.readCursor == g.foot.N() {
				g.readCursor = 0
			}
			line = g.readCursor
		default:
			line = g.foot.Mod(g.rng.Uint64())
		}
	} else {
		g.writesLeft--
		g.stats.Writes++
		ref.Access.Op = trace.OpWrite
		if g.rng.Below(g.streamWrite) {
			page := g.writeCursor / pageLines
			g.writeCursor = page*pageLines + (g.writeCursor+1)%pageLines
		} else {
			g.writeCursor = g.foot.Mod(g.rng.Uint64())
		}
		line = g.writeCursor
		g.recent.push(line)
	}
	ref.Access.Addr = line * trace.CacheLineSize
	return ref
}

// backgroundLines is the kernel threads' 64 MB footprint in lines.
const backgroundLines = (64 << 20) / trace.CacheLineSize

// Background generates the ambient kernel-thread traffic every measurement
// runs on top of ("all the workloads are executed upon our system already
// running tens of kernel threads", Section VI): read-mostly references with
// light intensity spread over a modest footprint.
type Background struct {
	rng   sim.RNG
	left  uint64
	stats trace.Stats
}

// NewBackground builds a kernel-thread traffic source emitting sampleOps
// references.
func NewBackground(sampleOps uint64, seed uint64) *Background {
	return &Background{
		rng:  *sim.NewRNG(seed ^ 0xBEEFBEEF),
		left: sampleOps,
	}
}

// Name identifies the source.
func (b *Background) Name() string { return "kernel-threads" }

// Remaining reports outstanding references.
//
//lightpc:zeroalloc
func (b *Background) Remaining() uint64 { return b.left }

// Stats exposes traffic counters.
func (b *Background) Stats() trace.Stats { return b.stats }

// Next emits one reference.
func (b *Background) Next() (Ref, bool) {
	if b.left == 0 {
		return Ref{}, false
	}
	return b.step(), true
}

// step emits one reference, 85% reads, sparse in time (kernel threads are
// mostly idle); the caller guarantees Remaining() > 0. It draws the line,
// then the read/write trial.
//
//lightpc:zeroalloc
func (b *Background) step() Ref {
	b.left--
	line := b.rng.Uint64() % backgroundLines
	ref := Ref{
		Access:        trace.Access{Addr: line * trace.CacheLineSize, Size: trace.CacheLineSize, Op: trace.OpWrite},
		ComputeCycles: 80, // sparse: mostly idle housekeeping
	}
	if b.rng.Below(bgRead) {
		b.stats.Reads++
		ref.Access.Op = trace.OpRead
	} else {
		b.stats.Writes++
	}
	return ref
}
