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

// checkLRU asserts that every bucket's chain is doubly linked and holds
// only keys that hash to it, and that the chains together hold each node
// in use exactly once (checked first, with bounded walks, so a broken
// chain fails here instead of sending find round a cycle); that l holds
// exactly the model's blocks, in the model's recency order, with its dirty
// bits and dirty count; that find reaches every cached key in its bucket;
// and that every absent key misses.
func checkLRU(t *testing.T, step int, l *lru, r *refLRU) {
	t.Helper()
	if l.len() != len(r.entries) {
		t.Fatalf("step %d: len = %d, model %d", step, l.len(), len(r.entries))
	}
	seen := make([]bool, len(l.nodes))
	chained := 0
	for b, first := range l.heads {
		prev := int32(-1)
		for i := first; i >= 0; prev, i = i, l.nodes[i].hnext {
			if i >= l.n || seen[i] {
				t.Fatalf("step %d: bucket %d chains node %d (in use: %d, seen before: %v)",
					step, b, i, l.n, i < l.n && seen[i])
			}
			seen[i] = true
			chained++
			n := l.nodes[i]
			if n.hprev != prev {
				t.Fatalf("step %d: bucket %d: node %d links back to %d, follows %d", step, b, i, n.hprev, prev)
			}
			if h := hash64(n.key) >> l.shift; h != uint64(b) {
				t.Fatalf("step %d: key %d hashes to bucket %d, chained in %d", step, n.key, h, b)
			}
		}
	}
	if chained != l.len() {
		t.Fatalf("step %d: chains hold %d nodes for %d blocks", step, chained, l.len())
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
		if b, got := l.find(e.key); got != i || b != hash64(e.key)>>l.shift {
			t.Fatalf("step %d: find(%d) = bucket %d node %d, list has it at node %d",
				step, e.key, b, got, i)
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
	for key := uint64(0); key < fuzzKeys; key++ {
		if r.find(key) >= 0 {
			continue
		}
		if b, got := l.find(key); got >= 0 || b != hash64(key)>>l.shift {
			t.Fatalf("step %d: absent key %d found in bucket %d at node %d", step, key, b, got)
		}
	}
}

// fuzzKeys bounds the key universe so small tiers evict constantly and
// every bucket chain collides.
const fuzzKeys = 32

// FuzzLRU runs random lookup / access / flushAll / clone streams through
// the indexed LRU at capacities 1–8 (bucket arrays of 2–16 chains, so
// keys collide and evictions unlink nodes from the head, the middle and
// the end of a chain) in lockstep with the recency-ordered reference
// model. A lookup is find plus refresh on a hit, as DIMM.Read's SRAM probe
// does; an access also adds a missing block to the bucket find returned,
// as DIMM.Read fills a tier it missed, and dirties a hit block on a write,
// as DIMM.Write's DRAM-hit branch does. Each op's results — hits, victims
// and their dirtiness, flushed counts — must match, and after each op the
// full tier state must too. A clone continues the stream in place of its
// source or beside it; the copy left behind must still match the model as
// of the clone, whatever happened to the other.
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
			case 0, 4:
				i, ok := hit(l, key)
				if want := r.touch(key); ok != want {
					t.Fatalf("step %d: find(%d) = node %d, model hit=%v", step, key, i, want)
				}
				if ok && b&7 == 4 {
					l.markDirty(i)
					r.entries[0].dirty = true
				}
			case 1, 2, 7:
				dirty := b&7 == 2
				gotD, gotE := access(l, key, dirty)
				wantD, wantE := r.insert(key, dirty)
				if gotD != wantD || gotE != wantE {
					t.Fatalf("step %d: access(%d, %v) evicted=%v dirty=%v, model evicted=%v dirty=%v",
						step, key, dirty, gotE, gotD, wantE, wantD)
				}
			case 3:
				if got, want := l.flushAll(), r.flushAll(); got != want {
					t.Fatalf("step %d: flushAll = %d, model %d", step, got, want)
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
