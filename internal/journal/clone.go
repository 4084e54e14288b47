package journal

import (
	"maps"
	"slices"
)

// Clone returns a deep copy of the store — volatile memory, the WAL, the
// home image, checkpoint cursor, and the block device underneath — so a
// forked system can crash and recover its copy without disturbing the
// source.
func (s *Store) Clone() *Store {
	return &Store{
		dev:         s.dev.Clone(),
		mem:         maps.Clone(s.mem),
		log:         slices.Clone(s.log),
		committed:   s.committed,
		home:        maps.Clone(s.home),
		ckptPos:     s.ckptPos,
		nextLBA:     s.nextLBA,
		appends:     s.appends,
		barriers:    s.barriers,
		checkpoints: s.checkpoints,
	}
}
