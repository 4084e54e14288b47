package sim

import (
	"fmt"
	"math"
	"sort"
)

// Histogram keeps every duration sample and answers exact summary queries,
// standard deviation included. Its memory grows with each Add, so it is for
// experiment-local probes with a bounded sample count, such as Fig 2b's
// six. Latencies recorded on device hot paths go to a LatencyHistogram,
// which has fixed memory.
type Histogram struct {
	samples []Duration
	sorted  bool
	sum     Duration
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Add records one sample.
func (h *Histogram) Add(d Duration) {
	h.samples = append(h.samples, d)
	h.sum += d
	h.sorted = false
}

// Count reports the number of samples.
func (h *Histogram) Count() int { return len(h.samples) }

// Sum reports the total of all samples.
func (h *Histogram) Sum() Duration { return h.sum }

// Mean reports the average sample, or zero when empty.
func (h *Histogram) Mean() Duration {
	if len(h.samples) == 0 {
		return 0
	}
	return h.sum / Duration(len(h.samples))
}

func (h *Histogram) sortSamples() {
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
}

// Percentile reports the p-th percentile (0 ≤ p ≤ 100), or zero when empty.
func (h *Histogram) Percentile(p float64) Duration {
	if len(h.samples) == 0 {
		return 0
	}
	h.sortSamples()
	if p <= 0 {
		return h.samples[0]
	}
	if p >= 100 {
		return h.samples[len(h.samples)-1]
	}
	idx := int(p / 100 * float64(len(h.samples)-1))
	return h.samples[idx]
}

// Min reports the smallest sample, or zero when empty.
func (h *Histogram) Min() Duration { return h.Percentile(0) }

// Max reports the largest sample, or zero when empty.
func (h *Histogram) Max() Duration { return h.Percentile(100) }

// StdDev reports the population standard deviation of the samples.
func (h *Histogram) StdDev() Duration {
	n := len(h.samples)
	if n == 0 {
		return 0
	}
	mean := float64(h.Mean())
	var acc float64
	for _, s := range h.samples {
		d := float64(s) - mean
		acc += d * d
	}
	return Duration(math.Sqrt(acc / float64(n)))
}

// CoefficientOfVariation reports stddev/mean, a unitless spread measure used
// for the latency-determinism analyses (Fig 2b).
func (h *Histogram) CoefficientOfVariation() float64 {
	m := h.Mean()
	if m == 0 {
		return 0
	}
	return float64(h.StdDev()) / float64(m)
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.Count(), h.Mean(), h.Percentile(50), h.Percentile(99), h.Max())
}

// Counter is a simple named tally used across device models.
type Counter struct {
	n uint64
}

// Inc adds one.
//
//lightpc:zeroalloc
func (c *Counter) Inc() { c.n++ }

// Value reports the tally.
//
//lightpc:zeroalloc
func (c *Counter) Value() uint64 { return c.n }
