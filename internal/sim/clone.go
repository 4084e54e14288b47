package sim

// Clone support for snapshot forks. Cloned state must be deep enough that a
// fork and its source can run to completion independently without observing
// each other; everything here is plain value state.

// Clone returns an independent generator at the same stream position.
func (r *RNG) Clone() *RNG {
	if r == nil {
		return nil
	}
	return &RNG{s: r.s}
}

// Clone returns an independent copy: the buckets are an inline array, so
// this is one value copy.
func (h *LatencyHistogram) Clone() *LatencyHistogram {
	c := *h
	return &c
}
