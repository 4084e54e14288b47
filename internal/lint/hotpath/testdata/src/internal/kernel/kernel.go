// Package kernel is a hot-package fixture: a bank or page table holding its
// words in a Go map is flagged; one on a paged word table is not, and
// neither is a map keyed by something other than uint64.
package kernel

type table struct {
	dir []uint64
}

type mapBank struct {
	words map[uint64]uint64 // want `map\[uint64\]-keyed field words`
}

type pageTable struct {
	entries map[uint64]uint64 // want `map\[uint64\]-keyed field entries`
}

type bank struct {
	name  string
	words table
}

type tlbKey struct{ root, vpn uint64 }

type tlb struct {
	entries map[tlbKey]uint64
}
