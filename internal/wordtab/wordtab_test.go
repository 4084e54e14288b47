package wordtab

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"testing"
)

// pair is one (key, word) visited by a walk.
type pair struct{ k, v uint64 }

// walk collects what Range visits.
func walk(t *Table, lo, hi uint64) []pair {
	var out []pair
	t.Range(lo, hi, func(k, v uint64) { out = append(out, pair{k, v}) })
	return out
}

// modelWalk is the map formula Range replaces: collect, filter, sort.
func modelWalk(m map[uint64]uint64, lo, hi uint64) []pair {
	var out []pair
	for k, v := range m {
		if k >= lo && k <= hi {
			out = append(out, pair{k, v})
		}
	}
	slices.SortFunc(out, func(a, b pair) int {
		switch {
		case a.k < b.k:
			return -1
		case a.k > b.k:
			return 1
		}
		return 0
	})
	return out
}

func TestStoredZeroIsPresent(t *testing.T) {
	var tb Table
	tb.Set(5, 0)
	if v, ok := tb.Get(5); !ok || v != 0 {
		t.Fatalf("Get(5) = %d, %v; want a present zero", v, ok)
	}
	if _, ok := tb.Get(6); ok {
		t.Fatal("untouched slot on a live page reads as present")
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tb.Len())
	}
	tb.Delete(5)
	if _, ok := tb.Get(5); ok || tb.Len() != 0 {
		t.Fatalf("deleted word still present (Len %d)", tb.Len())
	}
	if got := walk(&tb, 0, math.MaxUint64); len(got) != 0 {
		t.Fatalf("emptied page still walks: %v", got)
	}
}

func TestRangeBoundsAndOrder(t *testing.T) {
	var tb Table
	keys := []uint64{math.MaxUint64, 0, 15, 16, 17, 31, 1 << 61, 1<<61 - 1, 1 << 40, math.MaxUint64 - 16}
	m := map[uint64]uint64{}
	for i, k := range keys {
		tb.Set(k, uint64(i))
		m[k] = uint64(i)
	}
	for _, r := range [][2]uint64{
		{0, math.MaxUint64}, {0, 0}, {1, 15}, {15, 16}, {16, 31}, {17, 1 << 61},
		{1<<61 - 1, 1<<61 - 1}, {math.MaxUint64, math.MaxUint64}, {32, 1<<40 - 1}, {40, 3},
	} {
		if got, want := walk(&tb, r[0], r[1]), modelWalk(m, r[0], r[1]); !slices.Equal(got, want) {
			t.Fatalf("Range(%#x, %#x) = %v, want %v", r[0], r[1], got, want)
		}
	}
}

// TestCloneSharesUntilWrite checks that a clone shares its source's pages
// (Clone copies one directory entry per page) and that a write on either
// side copies the page instead of reaching the other side.
func TestCloneSharesUntilWrite(t *testing.T) {
	var src Table
	for k := uint64(0); k < 80; k++ {
		src.Set(k, k+100)
	}
	c := src.Clone()
	if got := src.CloneBytes(); got != 5*entryBytes {
		t.Fatalf("CloneBytes = %d, want %d for five pages", got, 5*entryBytes)
	}
	for i := range c.dir {
		if c.dir[i].page != src.dir[i].page {
			t.Fatalf("page %d copied by Clone", i)
		}
	}
	c.Set(3, 1)
	src.Set(20, 2)
	c.Delete(40)
	src.Delete(50)
	if v, _ := src.Get(3); v != 103 {
		t.Fatalf("clone's write reached the source: %d", v)
	}
	if v, _ := c.Get(20); v != 120 {
		t.Fatalf("source's write reached the clone: %d", v)
	}
	if _, ok := src.Get(40); !ok {
		t.Fatal("clone's delete reached the source")
	}
	if _, ok := c.Get(50); !ok {
		t.Fatal("source's delete reached the clone")
	}
	if c.dir[4].page != src.dir[4].page {
		t.Fatal("a page neither side wrote was copied")
	}
}

// TestOwnedPageReadWriteAllocFree pins the steady state: once a table owns
// its pages, Get, Set, Range and Delete of present words allocate nothing.
func TestOwnedPageReadWriteAllocFree(t *testing.T) {
	var src Table
	for k := uint64(0); k < 256; k++ {
		src.Set(k<<20, k)
	}
	tb := src.Clone()
	for k := uint64(0); k < 256; k++ {
		tb.Set(k<<20, k+1) // take every page
	}
	var sum uint64
	if n := testing.AllocsPerRun(100, func() {
		for k := uint64(0); k < 256; k++ {
			v, _ := tb.Get(k << 20)
			tb.Set(k<<20, v+1)
		}
		tb.Range(0, math.MaxUint64, func(k, v uint64) { sum += v })
		tb.Delete(7 << 20)
		tb.Set(7<<20, 7)
	}); n != 0 {
		t.Fatalf("owned-page steady state allocates %.1f times per run", n)
	}
}

// fuzzKey shapes 8 raw bytes into a key near one of the boundaries the
// table's users hit: dense low keys across page edges, the 2^61 line where a
// bank's rotated word-aligned addresses end and unaligned ones begin, bank
// addresses rotated exactly as kernel.Bank does, the top of the key space,
// and arbitrary sparse keys.
func fuzzKey(mode byte, raw uint64) uint64 {
	switch mode % 5 {
	case 0:
		return raw % 80
	case 1:
		return 1<<61 - 40 + raw%80
	case 2:
		return bits.RotateLeft64(raw%0x400|raw>>40<<36, -3)
	case 3:
		return math.MaxUint64 - raw%80
	default:
		return raw
	}
}

// FuzzTable runs an op stream over up to four tables, each in lockstep with
// the map it replaced. Clones join the set, so writes, deletes and resets on
// one side of a clone are checked against the other side's model too; after
// every op every table is compared in full.
func FuzzTable(f *testing.F) {
	f.Add([]byte{})
	seed := make([]byte, 0, 11*12)
	for i := 0; i < 12; i++ {
		var b [11]byte
		b[0] = byte(i % 7)
		b[1] = byte(i)
		b[2] = byte(i * 3)
		binary.LittleEndian.PutUint64(b[3:], uint64(i)*0x9E3779B97F4A7C15)
		seed = append(seed, b[:]...)
	}
	f.Add(seed)
	f.Add([]byte{0, 0, 1, 5, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 5, 0, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Every op re-checks every table in full, so cap the stream.
		if len(data) > 11*256 {
			data = data[:11*256]
		}
		tabs := []*Table{new(Table)}
		models := []map[uint64]uint64{{}}
		for len(data) >= 11 {
			op, sel, mode := data[0]%7, int(data[1]), data[2]
			raw := binary.LittleEndian.Uint64(data[3:11])
			data = data[11:]
			w := sel % len(tabs)
			tb, m := tabs[w], models[w]
			k := fuzzKey(mode, raw)

			switch op {
			case 0:
				v := raw >> 7
				tb.Set(k, v)
				m[k] = v
			case 1:
				tb.Delete(k)
				delete(m, k)
			case 2:
				v, ok := tb.Get(k)
				mv, mok := m[k]
				if v != mv || ok != mok {
					t.Fatalf("table %d Get(%#x) = %d, %v; model %d, %v", w, k, v, ok, mv, mok)
				}
			case 3:
				if len(tabs) < 4 {
					c := tb.Clone()
					cm := make(map[uint64]uint64, len(m))
					for mk, mv := range m {
						cm[mk] = mv
					}
					tabs = append(tabs, &c)
					models = append(models, cm)
				}
			case 4:
				hi := k + uint64(mode)*uint64(sel)
				if hi < k {
					hi = math.MaxUint64
				}
				if got, want := walk(tb, k, hi), modelWalk(m, k, hi); !slices.Equal(got, want) {
					t.Fatalf("table %d Range(%#x, %#x) = %v, model %v", w, k, hi, got, want)
				}
			case 5:
				tb.Reset()
				clear(m)
			case 6:
				// Delete every key Range visits, as Bank.RestoreFrom does.
				hi := k | 0xFFFF
				for _, p := range modelWalk(m, k, hi) {
					delete(m, p.k)
				}
				tb.Range(k, hi, func(key, _ uint64) { tb.Delete(key) })
			}

			for i, tb := range tabs {
				if tb.Len() != len(models[i]) {
					t.Fatalf("table %d Len %d, model %d", i, tb.Len(), len(models[i]))
				}
				if got, want := walk(tb, 0, math.MaxUint64), modelWalk(models[i], 0, math.MaxUint64); !slices.Equal(got, want) {
					t.Fatalf("table %d holds %v, model %v", i, got, want)
				}
			}
		}
	})
}
