package lightpc

import (
	"encoding/json"
	"testing"

	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/snapshot"
	"repro/internal/sng"
)

// TestForkCompleteness pins Platform's (and SnG's, which Fork value-copies
// and rewires) field lists: a new mutable field fails here until Fork
// handles it.
func TestForkCompleteness(t *testing.T) {
	snapshot.CheckCovered(t, Platform{},
		"cfg", "backend", "psm", "data", "dramC", "kern", "sng", "energy", "coreM")
	snapshot.CheckCovered(t, sng.SnG{},
		"K", "P", "T", "Unbalanced", "Obs", "Energy", "CoreEnergy")
}

func runJSON(t *testing.T, res RunResult) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestForkRunEquivalence checks a fork of a fresh platform behaves exactly
// like a freshly built platform, for both backends.
func TestForkRunEquivalence(t *testing.T) {
	for _, kind := range []Kind{LegacyPC, LightPCFull} {
		cfg := DefaultConfig(kind)
		cfg.SampleOps = 5_000
		spec := mustSpec(t, "Redis")
		want := runJSON(t, New(cfg).Run(spec))
		got := runJSON(t, New(cfg).Fork().Run(spec))
		if got != want {
			t.Fatalf("%v: forked run diverged from fresh run\nforked: %s\nfresh:  %s", kind, got, want)
		}
	}
}

// TestForkIsolation runs a workload on one fork and checks the base and a
// later fork are untouched by it, and that power-failing a fork records
// nothing on the tracer attached to the base's PSM.
func TestForkIsolation(t *testing.T) {
	cfg := DefaultConfig(LightPCFull)
	cfg.SampleOps = 5_000
	spec := mustSpec(t, "SQLite")
	base := New(cfg)
	tr := obs.NewTracer()
	base.PSM().SetTracer(tr)
	first := runJSON(t, base.Fork().Run(spec))
	if base.Kernel().OCPMEM == nil {
		t.Fatal("base lost its bank")
	}
	f := base.Fork()
	second := runJSON(t, f.Run(spec))
	if first != second {
		t.Fatalf("base was mutated by a fork's run:\nfirst:  %s\nsecond: %s", first, second)
	}
	f.PowerFail(0, power.ATX())
	if n := tr.Len(); n != 0 {
		t.Fatalf("the base's PSM tracer recorded %d events from a fork's power failure", n)
	}
}

// TestForkEnergyRewired checks a metered platform's fork gets its own
// meter set: the fork's meters advance while the base's stay put.
func TestForkEnergyRewired(t *testing.T) {
	cfg := DefaultConfig(LightPCFull)
	cfg.SampleOps = 5_000
	cfg.Energy = true
	base := New(cfg)
	f := base.Fork()
	if f.Energy() == base.Energy() {
		t.Fatal("fork shares the energy set with the base")
	}
	baseBefore, _ := json.Marshal(base.Energy().SnapshotJ())
	f.Run(mustSpec(t, "Redis"))
	baseAfter, _ := json.Marshal(base.Energy().SnapshotJ())
	if string(baseBefore) != string(baseAfter) {
		t.Fatalf("base meters moved while the fork ran:\nbefore: %s\nafter:  %s", baseBefore, baseAfter)
	}
	if f.Energy().TotalJ() <= base.Energy().TotalJ() {
		t.Fatal("fork's meters did not advance past the base's")
	}
}
