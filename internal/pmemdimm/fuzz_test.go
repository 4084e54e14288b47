package pmemdimm

import (
	"slices"
	"testing"
)

// refEntry is one block of the reference LRU: a key and its dirty bit.
type refEntry struct {
	key   uint64
	dirty bool
}

// refLRU is the plain model the indexed LRU must match: a slice kept in
// recency order, most recent first, searched linearly.
type refLRU struct {
	cap     int
	entries []refEntry
}

func (r *refLRU) find(key uint64) int {
	return slices.IndexFunc(r.entries, func(e refEntry) bool { return e.key == key })
}

func (r *refLRU) touch(key uint64) bool {
	i := r.find(key)
	if i < 0 {
		return false
	}
	e := r.entries[i]
	r.entries = slices.Insert(slices.Delete(r.entries, i, i+1), 0, e)
	return true
}

func (r *refLRU) insert(key uint64, dirty bool) (evictedDirty, evicted bool) {
	if i := r.find(key); i >= 0 {
		e := r.entries[i]
		e.dirty = e.dirty || dirty
		r.entries = slices.Insert(slices.Delete(r.entries, i, i+1), 0, e)
		return false, false
	}
	if len(r.entries) >= r.cap {
		victim := r.entries[len(r.entries)-1]
		r.entries = r.entries[:len(r.entries)-1]
		evicted, evictedDirty = true, victim.dirty
	}
	r.entries = slices.Insert(r.entries, 0, refEntry{key: key, dirty: dirty})
	return evictedDirty, evicted
}

func (r *refLRU) flushAll() int {
	n := 0
	for i := range r.entries {
		if r.entries[i].dirty {
			n++
			r.entries[i].dirty = false
		}
	}
	return n
}

func (r *refLRU) clone() *refLRU {
	return &refLRU{cap: r.cap, entries: slices.Clone(r.entries)}
}

// checkLRU asserts l holds exactly the model's blocks, in the model's
// recency order, with its dirty bits and dirty count, and that every key
// is reachable through the index while the evicted ones are not.
func checkLRU(t *testing.T, step int, l *lru, r *refLRU) {
	t.Helper()
	if l.len() != len(r.entries) {
		t.Fatalf("step %d: len = %d, model %d", step, l.len(), len(r.entries))
	}
	dirty := 0
	i := l.head
	for k, e := range r.entries {
		if i < 0 {
			t.Fatalf("step %d: recency list ends after %d of %d blocks", step, k, len(r.entries))
		}
		n := l.nodes[i]
		if n.key != e.key || l.isDirty(i) != e.dirty {
			t.Fatalf("step %d: recency position %d holds key %d dirty=%v, model key %d dirty=%v",
				step, k, n.key, l.isDirty(i), e.key, e.dirty)
		}
		if got := l.index[l.slot(e.key)] - 1; got != i {
			t.Fatalf("step %d: index finds key %d at node %d, list has it at %d", step, e.key, got, i)
		}
		if e.dirty {
			dirty++
		}
		i = n.next
	}
	if i >= 0 {
		t.Fatalf("step %d: recency list longer than the model's %d blocks", step, len(r.entries))
	}
	if l.dirty != dirty {
		t.Fatalf("step %d: dirty count = %d, model %d", step, l.dirty, dirty)
	}
	used := 0
	for _, v := range l.index {
		if v != 0 {
			used++
		}
	}
	if used != l.len() {
		t.Fatalf("step %d: index holds %d entries for %d blocks", step, used, l.len())
	}
	for key := uint64(0); key < fuzzKeys; key++ {
		if r.find(key) < 0 && l.index[l.slot(key)] != 0 {
			t.Fatalf("step %d: absent key %d still indexed", step, key)
		}
	}
}

// fuzzKeys bounds the key universe so small tiers evict constantly and
// every probe chain collides.
const fuzzKeys = 32

// FuzzLRU runs random touch / insert / flushAll / clone streams through
// the indexed LRU at capacities 1–8 (index tables of 2–16 slots, so chains
// collide and backward shifts wrap around the table) in lockstep with the
// recency-ordered reference model. Each op's results — hits, victims and
// their dirtiness, flushed counts — must match, and after each op the full
// tier state must too. A clone continues the stream in place of its source
// or beside it; the copy left behind must still match the model as of the
// clone, whatever happened to the other.
func FuzzLRU(f *testing.F) {
	f.Add(uint8(0), []byte{0x01, 0x09, 0x11, 0x08, 0x02, 0x03})
	f.Add(uint8(3), []byte{0x02, 0x0a, 0x12, 0x1a, 0x22, 0x2a, 0x00, 0x0c, 0x04, 0x32, 0x03, 0x0b})
	f.Add(uint8(7), []byte{0x01, 0x41, 0x81, 0xc1, 0x09, 0x49, 0x89, 0xc9, 0x04, 0x0a, 0x03, 0x51, 0x1c, 0xf9})

	f.Fuzz(func(t *testing.T, capacity uint8, ops []byte) {
		c := 1 + int(capacity%8)
		l := newLRU(c)
		r := &refLRU{cap: c}
		type frozen struct {
			l *lru
			r *refLRU
		}
		var left []frozen

		for step, b := range ops {
			key := uint64(b>>3) % fuzzKeys
			switch b & 7 {
			case 0:
				i, ok := l.touch(key)
				if want := r.touch(key); ok != want || ok != (i >= 0) {
					t.Fatalf("step %d: touch(%d) = %d,%v, model hit=%v", step, key, i, ok, want)
				}
			case 1, 2, 7:
				dirty := b&7 == 2
				gotD, gotE := l.insert(key, dirty)
				wantD, wantE := r.insert(key, dirty)
				if gotD != wantD || gotE != wantE {
					t.Fatalf("step %d: insert(%d, %v) evicted=%v dirty=%v, model evicted=%v dirty=%v",
						step, key, dirty, gotE, gotD, wantE, wantD)
				}
			case 3:
				if got, want := l.flushAll(), r.flushAll(); got != want {
					t.Fatalf("step %d: flushAll = %d, model %d", step, got, want)
				}
			case 4:
				i, ok := l.touch(key)
				if want := r.touch(key); ok != want {
					t.Fatalf("step %d: touch(%d) hit=%v, model %v", step, key, ok, want)
				}
				if ok {
					l.markDirty(i)
					r.entries[0].dirty = true
				}
			case 5:
				// Continue on the clone; the source is left behind.
				left = append(left, frozen{l, r.clone()})
				l = l.clone()
			case 6:
				// Continue on the source; the clone is left behind.
				left = append(left, frozen{l.clone(), r.clone()})
			}
			checkLRU(t, step, l, r)
		}
		for k, fz := range left {
			checkLRU(t, -1-k, fz.l, fz.r)
		}
	})
}
