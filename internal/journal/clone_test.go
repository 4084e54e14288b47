package journal

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/pmemdimm"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// TestCloneCompleteness pins Store's field list against Clone: a new
// mutable field fails here until the clone handles it. (devShared and
// logShared are the sharing marks Clone sets on both sides; logRecord is a
// value type, so sharing a record until Commit copies the log is sharing
// its three fields.)
func TestCloneCompleteness(t *testing.T) {
	snapshot.CheckCovered(t, Store{},
		"dev", "devShared", "mem", "log", "logShared", "committed", "home",
		"ckptPos", "nextLBA", "appends", "barriers", "checkpoints")
	snapshot.CheckCovered(t, logRecord{}, "key", "value", "commit")
}

// jop is one scripted store operation.
type jop struct {
	kind     byte // 'p' put, 'c' commit, 's' checkpoint step, 'r' timed recover
	key, val uint64
	n        int
}

func (o jop) apply(s *Store, now sim.Time) sim.Time {
	switch o.kind {
	case 'p':
		return s.Put(now, o.key, o.val)
	case 'c':
		return s.Commit(now)
	case 's':
		t, _ := s.CheckpointStep(now, o.n)
		return t
	default:
		s.Crash()
		return s.Recover(now)
	}
}

// replay builds a store that never shared anything and runs the script on
// it, returning the time the last op finished.
func replay(script []jop) (*Store, sim.Time) {
	s := Open(pmemdimm.NewSectorDevice(pmemdimm.New(pmemdimm.DefaultConfig())))
	var now sim.Time
	for _, o := range script {
		now = o.apply(s, now)
	}
	return s, now
}

// image is what a store's recovery reads (home and the log) plus its
// volatile map, flattened in key order.
type image struct {
	home, mem []uint64
	log       []logRecord
	committed int
}

func imageOf(s *Store) image {
	im := image{log: slices.Clone(s.log), committed: s.committed}
	s.home.Range(0, math.MaxUint64, func(k, v uint64) { im.home = append(im.home, k, v) })
	s.mem.Range(0, math.MaxUint64, func(k, v uint64) { im.mem = append(im.mem, k, v) })
	return im
}

// TestCloneSidesIndependent runs Put, Commit — first on the record both
// sides share at the log tail — CheckpointStep and a timed recovery on one
// side of a clone, source and clone in turn. After every op the other
// side's recovery inputs and volatile map must be unchanged; at the end
// each side must match a store that replayed its history without ever
// being cloned: the same image, the same recovered state, and the same
// device timing for one more Put.
func TestCloneSidesIndependent(t *testing.T) {
	history := []jop{
		{kind: 'p', key: 1, val: 10}, {kind: 'p', key: 2, val: 20}, {kind: 'c'},
		{kind: 'p', key: 3, val: 30}, {kind: 'c'}, {kind: 's', n: 1},
		{kind: 'p', key: 4, val: 40}, {kind: 'p', key: 1, val: 11},
	}
	edits := []jop{
		{kind: 'c'}, {kind: 'p', key: 5, val: 50}, {kind: 'p', key: 2, val: 21}, {kind: 'c'},
		{kind: 's', n: 2}, {kind: 'p', key: 6, val: 60}, {kind: 's', n: 100}, {kind: 'c'},
		{kind: 'p', key: 7, val: 70}, {kind: 'r'}, {kind: 'p', key: 8, val: 80}, {kind: 'c'},
	}
	for _, editClone := range []bool{false, true} {
		src, now := replay(history)
		c := src.Clone()
		edited, other := src, c
		if editClone {
			edited, other = c, src
		}
		otherImage := imageOf(other)
		t0 := now
		for i, e := range edits {
			now = e.apply(edited, now)
			if got := imageOf(other); !reflect.DeepEqual(got, otherImage) {
				t.Fatalf("editClone=%v: edit %d (%c) on one side changed the other:\n got %+v\nwant %+v",
					editClone, i, e.kind, got, otherImage)
			}
		}

		ref, refNow := replay(append(slices.Clone(history), edits...))
		if !reflect.DeepEqual(imageOf(edited), imageOf(ref)) || now != refNow {
			t.Fatalf("editClone=%v: edited side diverged from an unshared replay", editClone)
		}
		refOther, _ := replay(history)
		for _, pair := range [][2]*Store{{edited, ref}, {other, refOther}} {
			at := t0
			if pair[0] == edited {
				at = now
			}
			if got, want := pair[0].Put(at, 9, 90), pair[1].Put(at, 9, 90); got != want {
				t.Fatalf("editClone=%v: device timing diverged: Put done at %v, unshared replay %v", editClone, got, want)
			}
			pair[0].Crash()
			pair[0].RecoverState()
			pair[1].Crash()
			pair[1].RecoverState()
			if !reflect.DeepEqual(imageOf(pair[0]), imageOf(pair[1])) {
				t.Fatalf("editClone=%v: recovered state diverged from an unshared replay", editClone)
			}
		}
	}
}
