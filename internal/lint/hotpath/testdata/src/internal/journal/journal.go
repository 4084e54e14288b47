// Package journal is a hot-package fixture: a WAL store whose volatile and
// home images are Go maps is flagged; one on paged word tables is not.
package journal

type table struct {
	dir []uint64
}

type mapStore struct {
	mem  map[uint64]uint64 // want `map\[uint64\]-keyed field mem`
	home map[uint64]uint64 // want `map\[uint64\]-keyed field home`
}

type store struct {
	mem, home table
}
