// Package pmemdimm is a hot-package fixture: an LRU tier indexed by a Go
// map is flagged; the fixed-capacity open-addressed index is not.
package pmemdimm

type lruNode struct {
	key        uint64
	prev, next int32
}

type mapLRU struct {
	items map[uint64]int32 // want `map\[uint64\]-keyed field items`
	nodes []lruNode
}

type lru struct {
	index []int32 // node index + 1 per slot; 0 = empty
	shift uint
	nodes []lruNode
}
