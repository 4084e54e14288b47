// Package journal implements the write-ahead-logging persistence the
// paper's introduction motivates against: server software that cannot
// assume persistent memory makes updates crash-consistent by journaling —
// every mutation is serialized into a log on block storage (PMEM sector
// mode here), forced with a barrier, and checkpointed into the home
// location later. Replication of data, serialization through the log
// head, and barriers are exactly the costs Section I lists — and exactly
// what running on LightPC removes.
//
// The store is functional (crash + recovery replays the committed log
// suffix) and timed (every log append and barrier rides the sector
// device's model).
package journal

import (
	"errors"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/pmemdimm"
	"repro/internal/sim"
	"repro/internal/wordtab"
)

// Store is a key-value store with a write-ahead log.
//
// A clone shares what it has not yet written with its source (see Clone):
// the word pages of mem and home, the log records, and the sector device.
type Store struct {
	// dev is the block device under the log. The store owns it; while
	// devShared is set a clone shares it too, and the next device op
	// takes a private copy first.
	dev       *pmemdimm.SectorDevice
	devShared atomic.Bool

	// Volatile state (lost on power failure).
	mem wordtab.Table

	// log is the durable WAL: committed records survive crashes. The
	// in-memory slice stands in for the sector contents; the timing of
	// every append/barrier goes through dev. Its first logShared records
	// may be shared with a clone, so Commit copies the log before setting
	// the flag on one of them; the shared prefix is capacity-clipped on the
	// clone's side, so appends never reach it.
	log       []logRecord
	logShared atomic.Int64
	committed int // records before this index are durable

	// home is the durable home location, updated at checkpoints.
	home wordtab.Table

	// ckptPos is the volatile cursor of an in-progress incremental
	// checkpoint: records before it have been migrated into home. A crash
	// only loses the cursor; the migration itself is idempotent (recovery
	// replays the intact committed log over home).
	ckptPos int

	nextLBA uint64

	appends, barriers, checkpoints uint64
}

type logRecord struct {
	key, value uint64
	commit     bool
}

// ErrNotFound marks a missing key.
var ErrNotFound = errors.New("journal: key not found")

// Open creates a store over the sector device, which the store then owns.
func Open(dev *pmemdimm.SectorDevice) *Store {
	return &Store{dev: dev}
}

// device returns the sector device for one op, first taking a private copy
// if a clone shares it.
func (s *Store) device() *pmemdimm.SectorDevice {
	if s.devShared.Load() {
		s.dev = s.dev.Clone()
		s.devShared.Store(false)
	}
	return s.dev
}

// Put stages a mutation: it lands in volatile memory and appends a log
// record; durability requires Commit. Returns the time the append is
// issued (the log write is posted).
//
//lightpc:journalappend
func (s *Store) Put(now sim.Time, key, value uint64) sim.Time {
	s.mem.Set(key, value)
	if len(s.log) == cap(s.log) {
		// The append moves the log to a new array no clone shares.
		s.logShared.Store(0)
	}
	s.log = append(s.log, logRecord{key: key, value: value})
	s.appends++
	// One log append = one sector write at the log head.
	done := s.device().WriteSector(now, s.nextLBA)
	s.nextLBA++
	return done
}

// Commit forces the log: a barrier (flush) makes every staged record
// durable. This is the serialization point journaling pays per
// transaction.
//
//lightpc:commitpoint
func (s *Store) Commit(now sim.Time) sim.Time {
	s.barriers++
	// The barrier record itself plus the device-level force.
	done := s.device().WriteSector(now, s.nextLBA)
	s.nextLBA++
	if n := len(s.log); n > 0 {
		if int64(n) <= s.logShared.Load() {
			s.log = slices.Clone(s.log)
			s.logShared.Store(0)
		}
		s.log[n-1].commit = true
	}
	s.committed = len(s.log)
	return done
}

// Get reads a key from volatile memory (the fast path journaling buys).
func (s *Store) Get(key uint64) (uint64, error) {
	if v, ok := s.mem.Get(key); ok {
		return v, nil
	}
	return 0, ErrNotFound
}

// Checkpoint migrates the committed log into the home location and
// truncates it (the background work that bounds recovery time). Returns
// the completion time.
func (s *Store) Checkpoint(now sim.Time) sim.Time {
	t := now
	for {
		var done bool
		t, done = s.CheckpointStep(t, s.committed+1)
		if done {
			return t
		}
	}
}

// CheckpointStep migrates up to n committed records into the home location
// and reports whether the checkpoint finished (the committed prefix fully
// migrated and the log truncated). Splitting the migration into steps lets
// callers interleave foreground work — and lets a power cut land in the
// middle: the half-migrated state is still crash-consistent, because home
// updates re-apply records the intact committed log would replay anyway.
func (s *Store) CheckpointStep(now sim.Time, n int) (sim.Time, bool) {
	if s.ckptPos == 0 {
		s.checkpoints++
	}
	t := now
	for n > 0 && s.ckptPos < s.committed {
		r := s.log[s.ckptPos]
		s.home.Set(r.key, r.value)
		t = s.device().WriteSector(t, s.nextLBA%1024+2048) // home region
		s.ckptPos++
		n--
	}
	if s.ckptPos < s.committed {
		return t, false
	}
	s.log = append([]logRecord{}, s.log[s.committed:]...)
	s.logShared.Store(0)
	s.committed = 0
	s.ckptPos = 0
	return t, true
}

// Crash models a power failure: volatile state vanishes; only the home
// location and the committed log prefix survive. An in-progress
// incremental checkpoint loses its cursor. Nothing is copied: a store
// forked with Clone crashes without touching the pages, records or device
// it shares.
func (s *Store) Crash() {
	s.mem.Reset()
	// Clipping the capacity at the durable prefix keeps the committed
	// records in place without copying them; the next append reallocates.
	s.log = s.log[:s.committed:s.committed]
	s.ckptPos = 0
}

// Recover replays the committed log over the home location, rebuilding
// volatile state — the crash-consistency machinery LightPC's orthogonal
// persistence makes unnecessary. Returns the completion time.
func (s *Store) Recover(now sim.Time) sim.Time {
	t := now
	s.RecoverState()
	for range s.log {
		t = s.device().ReadSector(t, s.nextLBA%1024)
	}
	return t
}

// RecoverState replays the home image and committed log into memory
// without walking the device timing model. The recovered map is identical
// to Recover's; callers that discard the returned time — the crash-point
// cut path replays once per cut purely as an integrity check — skip the
// simulated sector reads entirely.
func (s *Store) RecoverState() {
	s.home.Range(0, math.MaxUint64, s.mem.Set)
	for _, r := range s.log {
		s.mem.Set(r.key, r.value)
	}
}

// Stats reports log appends, barriers, and checkpoints.
func (s *Store) Stats() (appends, barriers, checkpoints uint64) {
	return s.appends, s.barriers, s.checkpoints
}

// Len reports live keys.
func (s *Store) Len() int { return s.mem.Len() }
