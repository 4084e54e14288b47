package journal

import (
	"testing"
	"testing/quick"

	"repro/internal/pmemdimm"
	"repro/internal/sim"
)

func newStore() *Store {
	return Open(pmemdimm.NewSectorDevice(pmemdimm.New(pmemdimm.DefaultConfig())))
}

func TestPutGetCommit(t *testing.T) {
	s := newStore()
	now := s.Put(0, 1, 100)
	if v, err := s.Get(1); err != nil || v != 100 {
		t.Fatalf("Get = %d, %v", v, err)
	}
	now = s.Commit(now)
	if !now.After(0) {
		t.Fatal("no time charged")
	}
	appends, barriers, _ := s.Stats()
	if appends != 1 || barriers != 1 {
		t.Fatalf("stats = %d/%d", appends, barriers)
	}
}

func TestGetMissing(t *testing.T) {
	s := newStore()
	if _, err := s.Get(9); err != ErrNotFound {
		t.Fatalf("err = %v", err)
	}
}

func TestCrashLosesUncommitted(t *testing.T) {
	s := newStore()
	now := s.Put(0, 1, 100)
	now = s.Commit(now)
	s.Put(now, 2, 200) // staged, never committed
	s.Crash()
	s.Recover(0)
	if v, err := s.Get(1); err != nil || v != 100 {
		t.Fatal("committed record lost")
	}
	if _, err := s.Get(2); err != ErrNotFound {
		t.Fatal("uncommitted record survived the crash")
	}
}

func TestCheckpointBoundsRecovery(t *testing.T) {
	s := newStore()
	now := sim.Time(0)
	for i := uint64(0); i < 50; i++ {
		now = s.Put(now, i, i*2)
	}
	now = s.Commit(now)
	now = s.Checkpoint(now)
	s.Crash()
	s.Recover(now)
	for i := uint64(0); i < 50; i++ {
		if v, err := s.Get(i); err != nil || v != i*2 {
			t.Fatalf("key %d lost after checkpoint (%d, %v)", i, v, err)
		}
	}
	_, _, ckpts := s.Stats()
	if ckpts != 1 {
		t.Fatalf("checkpoints = %d", ckpts)
	}
}

func TestOverwriteKeepsLatestCommitted(t *testing.T) {
	s := newStore()
	now := s.Put(0, 7, 1)
	now = s.Commit(now)
	now = s.Put(now, 7, 2)
	now = s.Commit(now)
	s.Crash()
	s.Recover(now)
	if v, _ := s.Get(7); v != 2 {
		t.Fatalf("latest committed value lost: %d", v)
	}
}

func TestJournalingCostsTime(t *testing.T) {
	// The intro's point: journaled durability pays a log write + barrier
	// per transaction — orders of magnitude beyond a memory store.
	s := newStore()
	now := sim.Time(0)
	start := now
	for i := uint64(0); i < 20; i++ {
		now = s.Put(now, i, i)
		now = s.Commit(now)
	}
	perTx := now.Sub(start) / 20
	if perTx < 4*sim.Microsecond {
		t.Fatalf("per-transaction cost %v suspiciously low for block-device journaling", perTx)
	}
}

// Property: after any sequence of put/commit/crash, recovery reflects
// exactly the committed prefix.
func TestCrashConsistencyProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		s := newStore()
		now := sim.Time(0)
		committed := map[uint64]uint64{}
		staged := map[uint64]uint64{}
		for _, op := range ops {
			key := uint64(op % 8)
			switch op % 4 {
			case 0, 1: // put
				now = s.Put(now, key, uint64(op))
				staged[key] = uint64(op)
			case 2: // commit
				now = s.Commit(now)
				for k, v := range staged {
					committed[k] = v
				}
				staged = map[uint64]uint64{}
			case 3: // crash + recover
				s.Crash()
				now = s.Recover(now)
				staged = map[uint64]uint64{}
				for k, want := range committed {
					if v, err := s.Get(k); err != nil || v != want {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
