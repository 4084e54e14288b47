package linetab

import "slices"

// Clone support: every table in this package is a value struct plus flat
// slices, so a deep copy is a struct copy with the slices re-allocated.
// Clones share nothing with their source — either side can mutate freely —
// and copying is deterministic (pure slice copies, no map iteration), which
// is what lets snapshot forks reproduce a rebuilt run byte for byte.

// clone deep-copies the page directory.
func (d *dirIndex) clone() dirIndex {
	return dirIndex{
		dense:      slices.Clone(d.dense),
		spillKeys:  slices.Clone(d.spillKeys),
		spillSlots: slices.Clone(d.spillSlots),
		spillLive:  d.spillLive,
		spillShift: d.spillShift,
	}
}

// Clone returns a deep copy sharing no state with c.
func (c *Counters) Clone() *Counters {
	if c == nil {
		return nil
	}
	return &Counters{
		dir:     c.dir.clone(),
		pages:   slices.Clone(c.pages),
		touched: c.touched,
	}
}

// cloneValue deep-copies a Table held by value (the Slab embeds one).
func (t *Table) cloneValue() Table {
	return Table{
		dir:   t.dir.clone(),
		pages: slices.Clone(t.pages),
		count: t.count,
	}
}

// Clone returns a deep copy sharing no state with b. A nil bitset clones to
// nil (the all-clear bitset is represented as nil on purpose).
func (b *Bits) Clone() *Bits {
	if b == nil {
		return nil
	}
	return &Bits{
		dir:   b.dir.clone(),
		pages: slices.Clone(b.pages),
		count: b.count,
	}
}

// Clone returns a deep copy sharing no state (including the arena) with s.
func (s *Slab) Clone() *Slab {
	if s == nil {
		return nil
	}
	return &Slab{
		rec:   s.rec,
		refs:  s.refs.cloneValue(),
		arena: slices.Clone(s.arena),
	}
}

// Clone returns a deep copy of the in-flight set. Flight is embedded by
// value in device structs, so Clone returns a value too. The scratch slices
// are working storage for rebuild and start empty in the copy.
func (f *Flight) Clone() Flight {
	return Flight{
		keys:   slices.Clone(f.keys),
		ends:   slices.Clone(f.ends),
		live:   f.live,
		shift:  f.shift,
		maxEnd: f.maxEnd,
	}
}
