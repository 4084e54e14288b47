package journal

// Clone returns an independent copy of the store — volatile memory, the
// WAL, the home image, checkpoint cursor, and the block device underneath —
// so a forked system can crash and recover its copy without disturbing the
// source.
//
// Only what a fork's crash and recovery write is set up eagerly, and even
// that is shared: mem and home copy their page directories and share their
// word pages copy-on-write. The rest is shared until first written:
//
//   - the log records, capacity-clipped on the clone's side, so an append
//     on either side never reaches the other; Commit copies the log before
//     setting the flag on a shared record;
//   - the sector device, which either side copies on its next device op.
//
// Crash and RecoverState perform no device op and never set a flag, so a
// forked store crashes and recovers without copying any of these.
//
// Clone only reads the source, apart from atomic stores that mark what it
// now shares, so any number of goroutines may clone one store at once
// provided none of them uses it otherwise.
func (s *Store) Clone() *Store {
	n := len(s.log)
	s.devShared.Store(true)
	s.logShared.Store(int64(n))
	out := &Store{
		dev:         s.dev,
		mem:         s.mem.Clone(),
		log:         s.log[:n:n],
		committed:   s.committed,
		home:        s.home.Clone(),
		ckptPos:     s.ckptPos,
		nextLBA:     s.nextLBA,
		appends:     s.appends,
		barriers:    s.barriers,
		checkpoints: s.checkpoints,
	}
	out.devShared.Store(true)
	out.logShared.Store(int64(n))
	return out
}
