// Package wordtab provides Table, the paged copy-on-write word table behind
// the simulator's functional memory: the kernel's banks and the WAL
// journal's volatile and home images.
//
// The crash adversary forks a built system for every power cut and digests
// its banks in address order. In a Go map every fork would copy every
// entry, and every digest would collect and sort the keys. A Table instead
// keeps fixed 16-word pages behind a directory sorted by page index:
//
//   - a presence bit per word keeps a stored zero distinct from an absent
//     word;
//   - keys are arbitrary uint64 values; the directory is sparse, so keys far
//     apart cost one page each, and a lookup binary-searches it unless the
//     directory is gap-free, when the page's position follows from its
//     index;
//   - Range visits keys in ascending order straight off the pages, with no
//     key collection, no sort and no allocation;
//   - Clone copies only the directory. Both tables then share every page,
//     and whichever side first writes a shared page copies it.
//
// The page size follows from what a crash cut writes: about 500 words,
// mostly 10-word process save areas 1 MB apart. With 16-word pages a cut
// copies or creates a few dozen 144 B pages rather than a few dozen 4 KB
// ones.
//
// Ownership is an owner stamp. Every page records the stamp of the table
// that created or copied it, and a table writes a page in place only while
// the stamps match. A table with stamp zero owns nothing: a new table and
// both sides of a Clone start that way, and a table draws a fresh stamp
// when it first creates or copies a page. Neither side of a Clone therefore
// owns the pages they share.
//
// Concurrency: Clone only reads its source, apart from one atomic store
// that clears the source's stamp, so any number of goroutines may clone one
// table at once provided none of them writes it. Every other method needs
// the table to itself.
package wordtab

import (
	"math/bits"
	"slices"
	"sync/atomic"
)

// Page geometry: 16 words per page.
const (
	pageBits  = 4
	pageWords = 1 << pageBits
	slotMask  = pageWords - 1
)

// entryBytes is the size of one directory entry (page index and pointer),
// all that Clone copies per page.
const entryBytes = 16

// page is 16 consecutive keys. An absent slot holds zero.
type page struct {
	owner uint64 // stamp of the one table that may write this page in place
	used  uint16 // bit s set: slot s holds a word
	words [pageWords]uint64
}

// entry is one directory slot: the page holding keys index<<pageBits and up.
type entry struct {
	index uint64
	page  *page
}

// Table maps uint64 keys to uint64 words. The zero value is an empty table.
// Copy a table with Clone, never by assignment (go vet's copylocks check
// reports one): an assigned copy would write the pages it shares in place.
type Table struct {
	dir   []entry       // ascending by index
	n     int           // present words
	owner atomic.Uint64 // this table's stamp (0: none); pages carrying it are its own
}

// stamps is the last owner stamp handed out. Stamps only decide whether a
// write copies a page first, never what any read returns.
var stamps atomic.Uint64

// stamp returns the table's owner stamp, drawing one if it has none.
func (t *Table) stamp() uint64 {
	if o := t.owner.Load(); o != 0 {
		return o
	}
	o := stamps.Add(1)
	t.owner.Store(o)
	return o
}

// find returns the directory position of page index pi and whether that
// page is present; when it is not, the position is where it would go.
//
// A directory with no gaps from its first page holds pi at position
// pi - dir[0].index, so that guess is tried before the binary search: the
// journal's keys are dense, and replaying a log into them then costs one
// probe per record instead of a search.
//
//lightpc:zeroalloc
func (t *Table) find(pi uint64) (int, bool) {
	d := t.dir
	if len(d) == 0 {
		return 0, false
	}
	if g := pi - d[0].index; g < uint64(len(d)) && d[g].index == pi {
		return int(g), true
	}
	lo, n := 0, len(d)
	for n > 0 {
		half := n >> 1
		if d[lo+half].index < pi {
			lo += half + 1
			n -= half + 1
		} else {
			n = half
		}
	}
	return lo, lo < len(d) && d[lo].index == pi
}

// Get returns the word at k and whether one is present (an absent word reads
// as zero).
//
//lightpc:zeroalloc
func (t *Table) Get(k uint64) (uint64, bool) {
	i, ok := t.find(k >> pageBits)
	if !ok {
		return 0, false
	}
	p := t.dir[i].page
	s := k & slotMask
	return p.words[s], p.used>>s&1 != 0
}

// Set stores v at k. It writes an owned page in place; the first write to a
// shared page copies it, and the first write to a new page allocates it.
//
//lightpc:zeroalloc
func (t *Table) Set(k, v uint64) {
	pi := k >> pageBits
	i, ok := t.find(pi)
	var p *page
	switch {
	case !ok:
		//lint:allow zeroalloc first touch of a page allocates it
		p = t.insert(i, pi)
	case t.dir[i].page.owner != t.owner.Load():
		//lint:allow zeroalloc copy-on-write: the first write to a shared page copies it
		p = t.own(i)
	default:
		p = t.dir[i].page
	}
	s := k & slotMask
	if p.used>>s&1 == 0 {
		p.used |= 1 << s
		t.n++
	}
	p.words[s] = v
}

// Delete removes the word at k, if present. An emptied page stays in the
// directory; Range skips it.
func (t *Table) Delete(k uint64) {
	i, ok := t.find(k >> pageBits)
	if !ok {
		return
	}
	s := k & slotMask
	p := t.dir[i].page
	if p.used>>s&1 == 0 {
		return
	}
	if p.owner != t.owner.Load() {
		p = t.own(i)
	}
	p.used &^= 1 << s
	p.words[s] = 0
	t.n--
}

// insert puts a new, empty page for page index pi at directory position i.
func (t *Table) insert(i int, pi uint64) *page {
	p := &page{owner: t.stamp()}
	t.dir = slices.Insert(t.dir, i, entry{index: pi, page: p})
	return p
}

// own replaces the shared page at directory position i with a private copy.
func (t *Table) own(i int) *page {
	p := new(page)
	*p = *t.dir[i].page
	p.owner = t.stamp()
	t.dir[i].page = p
	return p
}

// Len reports how many words are present.
func (t *Table) Len() int { return t.n }

// Reset empties the table.
func (t *Table) Reset() {
	clear(t.dir)
	t.dir = t.dir[:0]
	t.n = 0
}

// Clone returns a table with the same contents that shares every page with
// t. Only the directory is copied. Neither table keeps an owner stamp, so
// the first write to a shared page, on either side, copies that page.
func (t *Table) Clone() Table {
	t.owner.Store(0)
	return Table{dir: slices.Clone(t.dir), n: t.n}
}

// CloneBytes reports how many bytes Clone copies: one directory entry per
// page.
func (t *Table) CloneBytes() uint64 { return entryBytes * uint64(len(t.dir)) }

// Range calls fn for every present key k with lo <= k <= hi, in ascending
// key order. fn may delete the key it is given; it must not otherwise write
// t.
func (t *Table) Range(lo, hi uint64, fn func(k, v uint64)) {
	if lo > hi {
		return
	}
	first, last := lo>>pageBits, hi>>pageBits
	i, _ := t.find(first)
	for ; i < len(t.dir) && t.dir[i].index <= last; i++ {
		e := t.dir[i]
		used := uint32(e.page.used)
		if e.index == first {
			used &^= 1<<(lo&slotMask) - 1
		}
		if e.index == last {
			used &= 2<<(hi&slotMask) - 1
		}
		base := e.index << pageBits
		for used != 0 {
			s := bits.TrailingZeros32(used)
			used &= used - 1
			fn(base|uint64(s), e.page.words[s])
		}
	}
}
