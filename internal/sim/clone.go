package sim

import "slices"

// Clone support for snapshot forks. Cloned state must be deep enough that a
// fork and its source can run to completion independently without observing
// each other; everything here is plain value/slice state.

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
