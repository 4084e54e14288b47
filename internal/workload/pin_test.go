package workload

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/trace"
)

// streamDigest drains g through an interleaving of Next and NextBatch calls
// of awkward sizes and folds every emitted Ref field, Remaining after each
// call, and the final Stats into an FNV-1a digest.
func streamDigest(g interface {
	Generator
	BatchSource
	Stats() trace.Stats
}) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	putRef := func(r Ref) {
		put(uint64(r.Access.Op))
		put(r.Access.Addr)
		put(uint64(r.Access.Size))
		l1 := uint64(0)
		if r.L1Hit {
			l1 = 1
		}
		put(l1)
		put(uint64(int64(r.ComputeCycles)))
	}
	sizes := []int{0, 1, 64, 3, 0, 17, 2, 64}
	var buf [64]Ref
	for i := 0; ; i++ {
		if sz := sizes[i%len(sizes)]; sz == 0 {
			r, ok := g.Next()
			if !ok {
				break
			}
			putRef(r)
		} else {
			n := g.NextBatch(buf[:sz])
			if n == 0 {
				break
			}
			for _, r := range buf[:n] {
				putRef(r)
			}
		}
		put(g.Remaining())
	}
	st := g.Stats()
	for _, v := range []uint64{st.Reads, st.Writes, st.RowBufferHits, st.RowBufferWrites,
		st.DReadHits, st.DReadTotal, st.DWriteHits, st.DWriteTotal} {
		put(v)
	}
	put(g.Remaining())
	return h.Sum64()
}

// TestGeneratorStreamsPinned pins the exact reference stream of every
// Table II generator and of the kernel-thread background at seeds 1 and 2:
// any change to a generator's draws, address arithmetic or bookkeeping
// moves a digest.
func TestGeneratorStreamsPinned(t *testing.T) {
	const refs = 100_000
	want := map[string][2]uint64{
		"AES":            {0x317950beca73635, 0xee15ecea8ac5bc42},
		"SHA512":         {0x70ddc1ae70df70be, 0x4f40f738ae94bb20},
		"miniFE":         {0x525cf8edbbae7e08, 0xf5cef3e98a08c735},
		"AMG":            {0xbccdd5a2c6d42ff1, 0xa2412d4626d141e2},
		"SNAP":           {0xe64bc1416c867e26, 0x545b58ef3fb09fdb},
		"perlbench":      {0x1d4fddcb62603788, 0xd1b27e0d44e72f4},
		"bzip2":          {0x4dba22ef29dae286, 0x6ad14768c50a223a},
		"gcc":            {0xbe676989f7a0179d, 0xae7f94896ba32e09},
		"mcf":            {0xc04a66963282663c, 0x6504af7d1f996194},
		"astar":          {0x2465abccca42892, 0xccdab8cc7cbbcdff},
		"cactusADM":      {0xe1c1041b7e64609a, 0x9a0c3eff85c0e594},
		"dealII":         {0x8bd1d669872bf064, 0x47973d52d0fff6f6},
		"wrf":            {0xfd8008838153c1a6, 0x89a1d96b1c10d2bd},
		"Redis":          {0x6b8bd563f448a615, 0x9e08175c444dd4e3},
		"KeyDB":          {0xd6dfcc260c0b77f1, 0xd0acddac228bdc65},
		"Memcached":      {0xa2ce4b3cd31f4718, 0x7d941ccd23b7ae11},
		"SQLite":         {0xf8ae35a8ece5ba96, 0x95101a5dc94c8924},
		"kernel-threads": {0xcf71c1ad2d390eac, 0x290e4be23aab9c57},
	}
	check := func(name string, got [2]uint64) {
		t.Helper()
		if w := want[name]; w != got {
			t.Errorf("%s: stream digests %#x, want %#x", name, got, w)
		}
	}
	for _, s := range Table2() {
		check(s.Name, [2]uint64{
			streamDigest(NewSynthetic(s, refs, 1)),
			streamDigest(NewSynthetic(s, refs, 2)),
		})
	}
	check("kernel-threads", [2]uint64{
		streamDigest(NewBackground(refs, 1)),
		streamDigest(NewBackground(refs, 2)),
	})
}
