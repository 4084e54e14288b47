// Package journal is a scoped fixture: a WAL store whose checkpoint image
// (the home table) must never be touched before the log append covering
// it, while its volatile image (mem) may be.
package journal

import "wordtab"

// Store is a key-value store with a write-ahead log.
type Store struct {
	log  []uint64
	mem  wordtab.Table
	home wordtab.Table
}

// Append is the append primitive; its interior is exempt.
//
//lightpc:journalappend
func (s *Store) Append(k, v uint64) {
	s.log = append(s.log, k, v)
}

// Commit is the commit primitive.
//
//lightpc:commitpoint
func (s *Store) Commit() {}

// PutGood stages in volatile memory, logs, then updates the checkpoint
// image: clean.
func (s *Store) PutGood(k, v uint64) {
	s.mem.Set(k, v)
	s.Append(k, v)
	s.home.Set(k, v)
	s.Commit()
}

// CheckpointEarly touches the home image before the append that covers it.
func (s *Store) CheckpointEarly(k, v uint64) {
	s.home.Set(k, v) // want `precedes the journal append`
	s.Append(k, v)
}

// DropEarly removes a home word before the append that covers it.
func (s *Store) DropEarly(k uint64) {
	s.home.Delete(k) // want `precedes the journal append`
	s.Append(k, 0)
}
