package workload

import "testing"

// benchNextBatch fills one DefaultBatchSize batch from each generator per
// op and reports host ns per reference. mk builds a generator holding n
// references; every generator is built before the timer starts, so a
// steady-state fill must not allocate.
func benchNextBatch[G BatchSource](b *testing.B, mk func(i int, n uint64) G, gens int) {
	all := make([]G, gens)
	for i := range all {
		all[i] = mk(i, uint64(b.N)*DefaultBatchSize)
	}
	var buf [DefaultBatchSize]Ref
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range all {
			g.NextBatch(buf[:])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*gens*DefaultBatchSize), "ns/ref")
}

// BenchmarkSyntheticNextBatch fills batches from every Table II spec's
// generator. BENCH_SEED.json pins it at 0 allocs/op.
func BenchmarkSyntheticNextBatch(b *testing.B) {
	specs := Table2()
	benchNextBatch(b, func(i int, n uint64) *Synthetic { return NewSynthetic(specs[i], n, 1) }, len(specs))
}

// BenchmarkBackgroundNextBatch fills batches from the kernel-thread
// background generator. BENCH_SEED.json pins it at 0 allocs/op.
func BenchmarkBackgroundNextBatch(b *testing.B) {
	benchNextBatch(b, func(_ int, n uint64) *Background { return NewBackground(n, 1) }, 1)
}
