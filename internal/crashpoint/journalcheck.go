package crashpoint

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/journal"
	"repro/internal/pmemdimm"
	"repro/internal/sim"
)

// jop is one scripted journal operation.
type jop struct {
	kind int // 0 put, 1 commit, 2 partial checkpoint step
	key  uint64
	val  uint64
	n    int
}

// CheckJournal enumerates op-boundary crash states of a seeded WAL
// workload: for every prefix of the operation script, a fresh store
// replays the prefix, crashes, recovers, and is compared against a shadow
// map of the committed state — recovered keys must match exactly (I2), and
// keys staged after the last commit must not surface (I4). Partial
// checkpoint steps are scripted too, so cuts land mid-checkpoint.
func CheckJournal(seed uint64, ops int) []Violation {
	rng := sim.NewRNG(seed)
	script := make([]jop, 0, ops)
	for i := 0; i < ops; i++ {
		switch {
		case rng.Bool(0.55):
			script = append(script, jop{kind: 0, key: rng.Uint64n(64), val: rng.Uint64() | 1})
		case rng.Bool(0.6):
			script = append(script, jop{kind: 1})
		default:
			script = append(script, jop{kind: 2, n: 1 + rng.Intn(3)})
		}
	}

	var out []Violation
	for cut := 0; cut <= len(script); cut++ {
		label := fmt.Sprintf("op %d/%d", cut, len(script))
		s := journal.Open(pmemdimm.NewSectorDevice(pmemdimm.New(pmemdimm.DefaultConfig())))
		committed := map[uint64]uint64{}
		staged := map[uint64]uint64{}
		now := sim.Time(0)
		for _, op := range script[:cut] {
			switch op.kind {
			case 0:
				now = s.Put(now, op.key, op.val)
				staged[op.key] = op.val
			case 1:
				now = s.Commit(now)
				for k, v := range staged {
					committed[k] = v
				}
				staged = map[uint64]uint64{}
			case 2:
				now, _ = s.CheckpointStep(now, op.n)
			}
		}
		s.Crash()
		s.RecoverState()

		if got, want := s.Len(), len(committed); got != want {
			out = append(out, violationf(label, InvTornCommit,
				"recovered %d keys, committed %d", got, want))
		}
		for _, k := range sortedKeys(committed) {
			v, err := s.Get(k)
			if err != nil {
				out = append(out, violationf(label, InvLostCommit, "committed key %d lost: %v", k, err))
				continue
			}
			if v != committed[k] {
				out = append(out, violationf(label, InvTornCommit,
					"key %d = %d, committed %d", k, v, committed[k]))
			}
		}
		// Staged-only keys must be unreadable; staged overwrites of
		// committed keys are covered by the exact-value check above.
		for _, k := range sortedKeys(staged) {
			if _, wasCommitted := committed[k]; wasCommitted {
				continue
			}
			if v, err := s.Get(k); !errors.Is(err, journal.ErrNotFound) {
				out = append(out, violationf(label, InvResidue,
					"staged key %d readable (= %d) after crash", k, v))
			}
		}
	}
	return out
}

// sortedKeys returns the map's keys in ascending order (deterministic
// violation order).
func sortedKeys[V any](m map[uint64]V) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
