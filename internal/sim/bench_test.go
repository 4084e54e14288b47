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
