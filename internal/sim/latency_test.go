package sim

import (
	"encoding/binary"
	"sort"
	"testing"
)

// TestLatencyBucketLayout walks every finite bucket: its largest sample
// maps back to it, the next sample opens the next bucket, and no bucket
// at or above 16 ps is wider than an eighth of its smallest sample.
func TestLatencyBucketLayout(t *testing.T) {
	lo := Duration(0)
	for i := 0; i < latBuckets; i++ {
		up := latUpper(i)
		if latBucket(lo) != i || latBucket(up) != i || latBucket(up+1) != i+1 {
			t.Fatalf("bucket %d [%d, %d]: maps to %d..%d, next sample to %d",
				i, lo, up, latBucket(lo), latBucket(up), latBucket(up+1))
		}
		if width := up - lo + 1; lo >= 16 && width*8 > lo {
			t.Fatalf("bucket %d [%d, %d] is wider than 1/8 of its lower bound", i, lo, up)
		}
		lo = up + 1
	}
	if lo != LatencyTop {
		t.Fatalf("finite buckets end at %d, want LatencyTop %d", lo, LatencyTop)
	}
	for _, d := range []Duration{-1, -LatencyTop, 0} {
		if latBucket(d) != 0 {
			t.Fatalf("sample %d maps to bucket %d, want 0", d, latBucket(d))
		}
	}
	for _, d := range []Duration{LatencyTop, LatencyTop + 1, 1 << 62} {
		if latBucket(d) != latBuckets {
			t.Fatalf("sample %d maps to bucket %d, want the overflow %d", d, latBucket(d), latBuckets)
		}
	}
}

func TestLatencyHistogramBasics(t *testing.T) {
	var h LatencyHistogram
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(0) != 0 || h.Percentile(50) != 0 || h.Percentile(100) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for i := 1; i <= 100; i++ {
		h.Add(Duration(i) * Nanosecond)
	}
	if h.Count() != 100 || h.Sum() != 5050*Nanosecond || h.Mean() != Duration(50500)*Picosecond {
		t.Fatalf("Count/Sum/Mean = %d/%v/%v", h.Count(), h.Sum(), h.Mean())
	}
	if h.Percentile(0) != Nanosecond || h.Percentile(100) != 100*Nanosecond {
		t.Fatalf("p0/p100 = %v/%v, want the exact min and max", h.Percentile(0), h.Percentile(100))
	}
	// Exact p50 is 50 ns, in bucket [49152, 53247] ps.
	if p50 := h.Percentile(50); p50 != 53247 {
		t.Fatalf("p50 = %d ps, want the bucket bound 53247", p50)
	}
}

func TestLatencyHistogramAddAllocFree(t *testing.T) {
	var h LatencyHistogram
	d := Duration(1)
	allocs := testing.AllocsPerRun(1000, func() {
		h.Add(d)
		d = d*3 + 1
	})
	if allocs != 0 {
		t.Fatalf("Add allocates %.1f objects/op, want 0", allocs)
	}
}

// fuzzSamples decodes a duration stream: each sample is a class byte and
// zero to eight payload bytes, so short inputs reach zero, negatives,
// ties, every magnitude up to LatencyTop, and the overflow bucket.
func fuzzSamples(data []byte) []Duration {
	var out []Duration
	take := func(n int) uint64 {
		var b [8]byte
		n = copy(b[:n], data)
		data = data[n:]
		return binary.LittleEndian.Uint64(b[:])
	}
	for len(data) > 0 {
		class := data[0]
		data = data[1:]
		var d Duration
		switch class % 8 {
		case 0:
			d = 0
		case 1:
			d = -Duration(take(2)) - 1
		case 2:
			d = Duration(take(1))
		case 3:
			d = Duration(take(2))
		case 4:
			d = Duration(take(4)) // [0, LatencyTop)
		case 5:
			d = LatencyTop + Duration(take(4))
		case 6:
			if len(out) > 0 {
				d = out[int(class/8)%len(out)] // a tie with an earlier sample
			}
		case 7:
			d = Duration(take(5)) << (class / 8 % 24) // large, possibly overflowing
		}
		out = append(out, d)
	}
	return out
}

// checkAgainst compares a LatencyHistogram with the sample-keeping
// Histogram fed the same stream.
func checkAgainst(t *testing.T, label string, h *LatencyHistogram, ref *Histogram) {
	t.Helper()
	if h.Count() != ref.Count() || h.Sum() != ref.Sum() || h.Mean() != ref.Mean() ||
		h.min != ref.Min() || h.max != ref.Max() {
		t.Fatalf("%s: count/sum/min/max/mean = %d/%d/%d/%d/%d, exact %d/%d/%d/%d/%d", label,
			h.Count(), h.Sum(), h.min, h.max, h.Mean(),
			ref.Count(), ref.Sum(), ref.Min(), ref.Max(), ref.Mean())
	}
	for _, p := range []float64{-1, 0, 0.1, 1, 10, 25, 50, 75, 90, 99, 99.9, 100, 101} {
		got, exact := h.Percentile(p), ref.Percentile(p)
		var ok bool
		switch {
		case p <= 0 || p >= 100:
			ok = got == exact
		case exact <= 0:
			ok = exact <= got && got <= 0
		case exact < LatencyTop:
			ok = exact <= got && (got-exact)*8 <= exact // within 12.5%
		default:
			ok = got == h.max
		}
		if !ok {
			t.Fatalf("%s: p%v = %d, exact %d: outside the bucket error", label, p, got, exact)
		}
	}

	// Exporter view: every `le` line counts exactly the samples at or
	// below it, the counts never decrease, and the +Inf line (Count) adds
	// only the samples at or above LatencyTop.
	sorted := append([]Duration(nil), ref.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	atOrBelow := func(v Duration) uint64 {
		return uint64(sort.Search(len(sorted), func(i int) bool { return sorted[i] > v }))
	}
	le, cum := h.Buckets()
	if len(le) != len(cum) {
		t.Fatalf("%s: %d bounds for %d counts", label, len(le), len(cum))
	}
	var prevLe Duration = -1
	var prevCum uint64
	for i := range le {
		if le[i] <= prevLe || cum[i] < prevCum || cum[i] != atOrBelow(le[i]) {
			t.Fatalf("%s: bucket %d le=%d cum=%d (previous le=%d cum=%d), exact count %d",
				label, i, le[i], cum[i], prevLe, prevCum, atOrBelow(le[i]))
		}
		prevLe, prevCum = le[i], cum[i]
	}
	if over := uint64(h.Count()) - atOrBelow(LatencyTop-1); prevCum+over != uint64(h.Count()) {
		t.Fatalf("%s: buckets end at %d, +Inf at %d, %d samples overflow", label, prevCum, h.Count(), over)
	}
}

// FuzzLatencyHistogram feeds one duration stream to the fixed-memory
// LatencyHistogram and to the sample-keeping Histogram, and holds the
// first to the second: exact count, sum, min, max and mean; every
// percentile within the documented bucket error (p0 and p100 exact); and
// exporter buckets that count exactly the samples at or below each bound.
// A clone taken mid-stream must still match the prefix it saw.
func FuzzLatencyHistogram(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0, 0, 2, 7, 3, 0x10, 0x27, 6}, uint16(2))
	f.Add([]byte{1, 5, 0, 4, 0xff, 0xff, 0xff, 0xff, 5, 1, 0, 0, 0, 4, 0, 0, 0, 1}, uint16(3))
	f.Add([]byte{3, 0x90, 0x28, 3, 0x90, 0x28, 14, 4, 0x40, 0x0d, 0x03, 0, 22, 2, 8}, uint16(4))
	f.Add([]byte{7, 1, 2, 3, 4, 5, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xbf, 1, 0xff, 0xff}, uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, cloneAt uint16) {
		samples := fuzzSamples(data)
		at := int(cloneAt) % (len(samples) + 1)
		var h LatencyHistogram
		ref := NewHistogram()
		var clone *LatencyHistogram
		prefix := NewHistogram()
		for i, d := range samples {
			if i == at {
				clone = h.Clone()
			}
			h.Add(d)
			ref.Add(d)
			if i < at {
				prefix.Add(d)
			}
		}
		if clone == nil {
			clone = h.Clone()
		}
		checkAgainst(t, "stream", &h, ref)
		checkAgainst(t, "clone", clone, prefix)
	})
}
