package sim

import "slices"

// Clone support for snapshot forks. Cloned state must be deep enough that a
// fork and its source can run to completion independently without observing
// each other; everything here is plain value/slice state except the Engine's
// event closures, which are shared by design (see Engine.Clone).

// Clone returns an independent generator at the same stream position.
func (r *RNG) Clone() *RNG {
	if r == nil {
		return nil
	}
	return &RNG{s: r.s}
}

// Clone returns a deep copy sharing no sample storage with h.
func (h *Histogram) Clone() *Histogram {
	if h == nil {
		return nil
	}
	return &Histogram{
		samples: slices.Clone(h.samples),
		sorted:  h.sorted,
		sum:     h.sum,
	}
}

// Clone returns a deep copy of the engine's scheduling state: the slot
// arena, timer heap, immediate ring, free list, and all counters. Pending
// event closures are shared with the source — a closure is immutable code
// plus captured pointers, and the engine cannot rewrite what a closure
// captured. Callers forking a platform must therefore only clone engines
// whose pending closures capture state owned by the clone (in practice:
// engines with no pending events, which is what the platform surface
// guarantees — every Run/Stop/Go drains its engine before returning).
func (e *Engine) Clone() *Engine {
	if e == nil {
		return nil
	}
	return &Engine{
		now:     e.now,
		seq:     e.seq,
		events:  e.events,
		live:    e.live,
		immHits: e.immHits,
		heapMax: e.heapMax,
		slots:   slices.Clone(e.slots),
		free:    e.free,
		heap:    slices.Clone(e.heap),
		imm:     slices.Clone(e.imm),
		immHead: e.immHead,
	}
}
