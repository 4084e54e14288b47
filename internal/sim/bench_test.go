package sim

import "testing"

// BenchmarkRNGSplit measures per-cell sub-stream derivation (one Split per
// experiment cell).
func BenchmarkRNGSplit(b *testing.B) {
	r := NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Split("cell/fig4/AES").Uint64()
	}
	_ = sink
}

// BenchmarkLatencyHistogramAdd records device-scale latencies (1 ps to
// ~16 ms, overflow included) into one histogram. BENCH_SEED.json pins it at
// 0 allocs/op.
func BenchmarkLatencyHistogramAdd(b *testing.B) {
	var h LatencyHistogram
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(Duration(i%int(16*Millisecond)) + 1)
	}
}
