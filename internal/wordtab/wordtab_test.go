package wordtab

import (
	"encoding/binary"
	"maps"
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

// checkModel compares a table with its model in full: every model key
// reads back through Get, Len agrees, and a walk matches.
func checkModel(t *testing.T, name string, tb *Table, m map[uint64]uint64) {
	t.Helper()
	for k, v := range m {
		if got, ok := tb.Get(k); !ok || got != v {
			t.Fatalf("%s: Get(%#x) = %d, %v; model %d", name, k, got, ok, v)
		}
	}
	if tb.Len() != len(m) {
		t.Fatalf("%s: Len %d, model %d", name, tb.Len(), len(m))
	}
	if got, want := walk(tb, 0, math.MaxUint64), modelWalk(m, 0, math.MaxUint64); !slices.Equal(got, want) {
		t.Fatalf("%s: holds %v, model %v", name, got, want)
	}
}

// TestLookupHintAgainstModel drives the directory hint through each way it
// can go stale, checking the table against a map after every step: a page
// inserted before the hinted one shifts it, Delete and Reset empty it,
// and a Clone starts both sides from one directory and lets each move its
// own hint.
func TestLookupHintAgainstModel(t *testing.T) {
	var tb Table
	m := map[uint64]uint64{}
	set := func(tb *Table, m map[uint64]uint64, k, v uint64) {
		tb.Set(k, v)
		m[k] = v
	}
	// A save area: ten consecutive words of one page, the hint's case.
	for k := uint64(0x1000); k < 0x100A; k++ {
		set(&tb, m, k, k*3)
	}
	hinted := uint64(0x1000) >> pageBits
	if tb.dir[tb.hint].index != hinted {
		t.Fatalf("hint at page %#x, want %#x", tb.dir[tb.hint].index, hinted)
	}
	// Insert pages before the hinted one: its position moves, and the
	// next lookup there must still land on the right page.
	set(&tb, m, 0x10, 1)
	set(&tb, m, 0x20, 2)
	if tb.dir[tb.hint].index == hinted {
		t.Fatal("inserting a page left the hint on the old page")
	}
	for k := uint64(0x1000); k < 0x100A; k++ {
		set(&tb, m, k, k*5)
	}
	if tb.hint != 2 || tb.dir[tb.hint].index != hinted {
		t.Fatalf("hint at position %d, want the shifted page at 2", tb.hint)
	}
	checkModel(t, "after inserts before the hint", &tb, m)
	// Delete through the hint, then write the emptied slot again.
	tb.Delete(0x1003)
	delete(m, 0x1003)
	tb.Delete(0x1004)
	delete(m, 0x1004)
	checkModel(t, "after deletes", &tb, m)
	set(&tb, m, 0x1003, 7)
	checkModel(t, "after rewriting a deleted word", &tb, m)
	// Clone, then let each side move its own hint and write pages the
	// other still shares. The clone's hint starts at position 0, on a
	// page other than the one the source last found.
	c := tb.Clone()
	cm := maps.Clone(m)
	if c.dir[c.hint].index == hinted {
		t.Fatal("the clone's first lookup would not test a stale hint")
	}
	set(&c, cm, 0x1001, 11)
	set(&tb, m, 0x0011, 12)
	set(&c, cm, 0x0005, 13) // a new page before every other
	set(&tb, m, 0x1002, 14)
	if _, ok := c.Get(0x1001); !ok {
		t.Fatal("clone lost a word")
	}
	checkModel(t, "source after clone", &tb, m)
	checkModel(t, "clone", &c, cm)
	// Reset leaves a hint past the end of the emptied directory.
	tb.Reset()
	clear(m)
	if tb.hint < len(tb.dir) {
		t.Fatal("Reset left the hint inside the directory")
	}
	if _, ok := tb.Get(0x1001); ok {
		t.Fatal("word present after Reset")
	}
	set(&tb, m, 0x1001, 15)
	set(&tb, m, 0x0001, 16)
	checkModel(t, "after reset", &tb, m)
	checkModel(t, "clone after source reset", &c, cm)
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
// every op every table is compared in full. Op 7 writes ten consecutive
// words, a process save area, so runs of lookups go through the
// directory hint between the other ops that move or stale it.
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
			op, sel, mode := data[0]%8, int(data[1]), data[2]
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
			case 7:
				for j := uint64(0); j < 10; j++ {
					tb.Set(k+j, raw+j)
					m[k+j] = raw + j
				}
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
