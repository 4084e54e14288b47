// Package pmemdimm is a hot-package fixture: an LRU tier indexed by a Go
// map is flagged; the fixed-size bucket array chained through the node
// arena is not.
package pmemdimm

type lruNode struct {
	key          uint64
	hprev, hnext int32
	prev, next   int32
}

type mapLRU struct {
	items map[uint64]int32 // want `map\[uint64\]-keyed field items`
	nodes []lruNode
}

type lru struct {
	heads []int32 // first node of each bucket's chain, -1 if empty
	shift uint
	nodes []lruNode
}
