package crashpoint

import (
	"reflect"
	"testing"

	"repro/internal/snapshot"
)

// TestForkCompleteness pins System's (and its capture structs') field
// lists against System.Fork: a new mutable field fails here until the
// fork handles it. (System.ckpt, the checkpoint region handles, is
// deliberately nil on forks — CutAt never consults it, and re-registering
// would mutate the very bank state the cut judges.) The shadow and pre-cut
// capture are not copied at all: Build freezes them, and every fork shares
// them read-only — their maps, slices, the checkpoint-region shadows and
// the precomputed key orders (committedKeys with committedVals,
// stagedKeys, lineKeys) included. TestFrozenShadowUntouchedByCuts pins
// that no cut writes them.
func TestForkCompleteness(t *testing.T) {
	snapshot.CheckCovered(t, System{},
		"Scenario", "Platform", "Window",
		"journal", "pool", "poolObj", "ckpt", "shadow", "pre")
	snapshot.CheckCovered(t, regionShadow{}, "name", "live", "committed")
	snapshot.CheckCovered(t, sysShadow{},
		"jCommitted", "jStaged", "pool", "poolStaged", "poolOpen", "regions", "lines",
		"committedKeys", "committedVals", "stagedKeys", "lineKeys")
	snapshot.CheckCovered(t, preState{},
		"appChecksum", "coreMRegs", "devContext", "devMMIO", "aliveCount")
}

// TestFrozenShadowUntouchedByCuts checks that sharing the frozen shadow
// and pre-cut capture is safe: forks cut on both the warm (commit) and the
// cold path leave the base system's copies deep-equal to those of an
// independent build of the same scenario, taken before any cut, and the
// precomputed key orders are strictly ascending and agree with the maps
// they were taken from.
func TestFrozenShadowUntouchedByCuts(t *testing.T) {
	sc := tinyScenario(4)
	base, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}

	var warm, cold int
	for _, off := range append(CellOffsets(base, "frozen-shadow", 4), 0, base.Window) {
		f := base.Fork()
		if f.shadow != base.shadow || f.pre != base.pre {
			t.Fatal("fork copied the frozen shadow or pre-cut capture instead of sharing it")
		}
		out := f.CutAt(off)
		if len(out.Violations) != 0 {
			t.Fatalf("cut at %v: %v", off, out.Violations)
		}
		if out.Recovered {
			warm++
		}
		if out.ColdBooted {
			cold++
		}
	}
	if warm == 0 || cold == 0 {
		t.Fatalf("cuts covered %d warm and %d cold paths; want both", warm, cold)
	}
	if !reflect.DeepEqual(base.shadow, ref.shadow) {
		t.Fatal("cutting forks wrote the shared shadow")
	}
	if !reflect.DeepEqual(base.pre, ref.pre) {
		t.Fatal("cutting forks wrote the shared pre-cut capture")
	}

	sh := base.shadow
	if len(sh.committedKeys) == 0 || len(sh.stagedKeys) == 0 || len(sh.lineKeys) == 0 {
		t.Fatalf("scenario staged too little: %d committed, %d staged-only, %d lines",
			len(sh.committedKeys), len(sh.stagedKeys), len(sh.lineKeys))
	}
	for name, keys := range map[string][]uint64{
		"committedKeys": sh.committedKeys, "stagedKeys": sh.stagedKeys, "lineKeys": sh.lineKeys,
	} {
		for i := 1; i < len(keys); i++ {
			if keys[i-1] >= keys[i] {
				t.Fatalf("%s not strictly ascending at %d: %d then %d", name, i, keys[i-1], keys[i])
			}
		}
	}
	if len(sh.committedKeys) != len(sh.jCommitted) || len(sh.lineKeys) != len(sh.lines) {
		t.Fatal("frozen key orders miss entries of their maps")
	}
	for _, k := range sh.committedKeys {
		if _, ok := sh.jCommitted[k]; !ok {
			t.Fatalf("committed order holds %d, which is not committed", k)
		}
	}
	for _, k := range sh.stagedKeys {
		if _, ok := sh.jStaged[k]; !ok {
			t.Fatalf("staged order holds %d, which is not staged", k)
		}
		if _, ok := sh.jCommitted[k]; ok {
			t.Fatalf("staged order holds %d, which a commit covers", k)
		}
	}
	for _, k := range sh.lineKeys {
		if _, ok := sh.lines[k]; !ok {
			t.Fatalf("line order holds %d, which was never written", k)
		}
	}
}
