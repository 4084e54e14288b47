package workload

// Batched reference streaming. Driving a platform pulls tens of millions of
// references per run; one Generator.Next interface call per reference is
// pure dispatch overhead on that path. BatchSource lets a generator fill a
// caller-provided slice in one call, while Next stays as the universal
// single-step shim. The Table II generators (Synthetic, Background) keep
// their whole per-reference logic in one unexported step: NextBatch checks
// the stream length once per batch and loops over step, and Next is a
// shim over the same step, so the two paths cannot drift apart.
//
// The batching contract: NextBatch(buf) must emit exactly the references
// the same sequence of Next calls would have emitted, in the same order,
// with identical side effects on Stats and Remaining once the batch is
// consumed. Batching is therefore invisible to results — only call counts
// change.

// BatchSource is implemented by generators that can fill batches natively.
type BatchSource interface {
	// NextBatch fills buf with the next references of the stream and
	// reports how many were written. A return of 0 means the stream is
	// exhausted (callers must not treat a short batch as exhaustion —
	// only zero ends the stream).
	NextBatch(buf []Ref) int
}

// DefaultBatchSize is the drive loops' per-core batch length: large enough
// to amortize the dispatch, small enough that per-core buffers stay in L1.
const DefaultBatchSize = 64

// FillBatch fills buf from g, using the bulk path when the generator
// provides one and falling back to per-reference Next calls otherwise.
func FillBatch(g Generator, buf []Ref) int {
	if bs, ok := g.(BatchSource); ok {
		return bs.NextBatch(buf)
	}
	n := 0
	for n < len(buf) {
		r, ok := g.Next()
		if !ok {
			break
		}
		buf[n] = r
		n++
	}
	return n
}

// NextBatch fills buf by looping over the generator's step: no Next, no
// per-reference end-of-stream check.
//
//lightpc:zeroalloc
func (g *Synthetic) NextBatch(buf []Ref) int {
	buf = buf[:min(uint64(len(buf)), g.Remaining())]
	for i := range buf {
		buf[i] = g.step()
	}
	return len(buf)
}

// NextBatch fills buf by looping over the generator's step.
//
//lightpc:zeroalloc
func (b *Background) NextBatch(buf []Ref) int {
	buf = buf[:min(uint64(len(buf)), b.left)]
	for i := range buf {
		buf[i] = b.step()
	}
	return len(buf)
}

// NextBatch fills buf by stepping the generator with direct calls.
func (s *Stream) NextBatch(buf []Ref) int {
	n := 0
	for n < len(buf) {
		r, ok := s.Next()
		if !ok {
			break
		}
		buf[n] = r
		n++
	}
	return n
}

// Drain consumes the rest of the stream in batches, discarding the
// references (generators accumulate Stats as a side effect — this is the
// cheap way to characterize a stream).
func Drain(g Generator) uint64 {
	var buf [DefaultBatchSize]Ref
	var total uint64
	for {
		n := FillBatch(g, buf[:])
		if n == 0 {
			return total
		}
		total += uint64(n)
	}
}
