package sim

import "math/bits"

// Bucket layout of LatencyHistogram, a constant of the type. Samples 0–15
// ps get a bucket each; above that, each power of two [2^e, 2^(e+1)) is cut
// into 2^latSubBits = 8 equal sub-buckets of width 2^(e-3). A bucket is
// therefore at most 1/8 as wide as its smallest sample.
const (
	latSubBits = 3
	latTopBits = 32

	// LatencyTop is the smallest sample the finite buckets do not hold
	// (2^32 ps, about 4.29 ms). Larger samples share one overflow bucket.
	LatencyTop Duration = 1 << latTopBits

	// latBuckets is the number of finite buckets, covering [0, LatencyTop).
	latBuckets = (latTopBits - latSubBits + 1) << latSubBits
)

// LatencyHistogram is a fixed-memory sim-time histogram for latencies
// recorded on hot paths. It keeps an exact count, sum, min and max, plus
// log-linear bucket counts in an inline array, so Add never allocates and
// a copy of the value is a complete, independent clone (about 2 KB).
//
// Count, Sum and Mean are exact, and so are p0 and p100, the min and max.
// Any other Percentile is bucket-resolved: it reports the largest value of
// the bucket holding the exact percentile, clamped to [min, max]. The
// answer is never below the exact percentile and, for samples in
// [0, LatencyTop), at most 12.5% above it. Samples at or below zero share
// bucket 0 (reported as 0); samples at or above LatencyTop share the
// overflow bucket (reported as the max).
//
// The zero value is an empty histogram ready for use.
type LatencyHistogram struct {
	n        uint64
	sum      Duration
	min, max Duration
	counts   [latBuckets + 1]uint64 // the last slot is the overflow bucket
}

// latBucket maps a sample to its bucket: the sample itself below 16,
// otherwise its power of two's offset plus its top latSubBits+1 bits. Samples ≤ 0 land in bucket 0 and samples ≥ LatencyTop in
// latBuckets, the overflow slot.
//
//lightpc:zeroalloc
func latBucket(d Duration) int {
	v := uint64(min(max(d, 0), LatencyTop))
	shift := max(bits.Len64(v), latSubBits+1) - (latSubBits + 1)
	return shift<<latSubBits + int(v>>shift)
}

// latUpper is the largest sample finite bucket i holds.
func latUpper(i int) Duration {
	shift := max(i>>latSubBits-1, 0)
	m := i - shift<<latSubBits
	return Duration((m+1)<<shift - 1)
}

// Add records one sample.
//
//lightpc:zeroalloc
func (h *LatencyHistogram) Add(d Duration) {
	if h.n == 0 || d < h.min {
		h.min = d
	}
	if h.n == 0 || d > h.max {
		h.max = d
	}
	h.n++
	h.sum += d
	h.counts[latBucket(d)]++
}

// Count reports the number of samples.
func (h *LatencyHistogram) Count() int { return int(h.n) }

// Sum reports the exact total of all samples.
func (h *LatencyHistogram) Sum() Duration { return h.sum }

// Mean reports the exact average sample (truncated to a picosecond), or
// zero when empty.
func (h *LatencyHistogram) Mean() Duration {
	if h.n == 0 {
		return 0
	}
	return h.sum / Duration(h.n)
}

// Percentile reports the p-th percentile (0 ≤ p ≤ 100) at bucket
// resolution, or zero when empty. It ranks samples as Histogram does; p ≤ 0
// and p ≥ 100 report the exact min and max.
func (h *LatencyHistogram) Percentile(p float64) Duration {
	if h.n == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := uint64(p / 100 * float64(h.n-1))
	var cum uint64
	for i := 0; i < latBuckets; i++ {
		if cum += h.counts[i]; cum > rank {
			return min(max(latUpper(i), h.min), h.max)
		}
	}
	return h.max
}

// Buckets reports the cumulative counts the exporters publish: for each
// non-empty finite bucket in ascending order, its largest sample (the
// Prometheus `le` bound) and the number of samples at or below it. The
// overflow bucket is the exporters' +Inf line, whose count is Count.
func (h *LatencyHistogram) Buckets() (le []Duration, cum []uint64) {
	var acc uint64
	for i, c := range h.counts[:latBuckets] {
		if c == 0 {
			continue
		}
		acc += c
		le = append(le, latUpper(i))
		cum = append(cum, acc)
	}
	return le, cum
}
