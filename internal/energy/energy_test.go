package energy_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/energy"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
)

// tally stands in for a metered device: it keeps its own op counts, as
// every device does, and a meter reads them through tally.counts.
type tally []uint64

func (t tally) counts(dst []uint64) { copy(dst, t) }

func testSpec() *energy.Spec {
	return &energy.Spec{
		Component: "test",
		Ops: []energy.OpSpec{
			{Name: "read", J: 2e-9},
			{Name: "write", J: 15e-9},
		},
		States: []energy.StateSpec{
			{Name: "on", W: 0.5},
			{Name: "off", W: 0},
		},
	}
}

// TestDisabledMeterZeroAllocs pins the nil-meter contract: every hot
// method no-ops without allocating (the same discipline as the nil
// obs.Tracer), so instrumented device paths stay 0 allocs/op with energy
// accounting off.
func TestDisabledMeterZeroAllocs(t *testing.T) {
	var m *energy.Meter
	var s *energy.Set
	if n := testing.AllocsPerRun(100, func() {
		m.Sync(42)
		m.SetState(43, 1)
		m.Rebase(44)
		s.Sync(45)
	}); n != 0 {
		t.Fatalf("disabled meter hot path allocates %v/op, want 0", n)
	}
}

// TestEnabledMeterChargeZeroAllocs pins the enabled charge path too: a
// state transition and a sync are slice arithmetic, never an allocation.
func TestEnabledMeterChargeZeroAllocs(t *testing.T) {
	m := energy.NewMeter("dev", testSpec(), nil)
	now := sim.Time(0)
	if n := testing.AllocsPerRun(100, func() {
		now = now.Add(sim.Microsecond)
		m.SetState(now, energy.State(now&1))
		now = now.Add(sim.Microsecond)
		m.Sync(now)
	}); n != 0 {
		t.Fatalf("enabled meter charge path allocates %v/op, want 0", n)
	}
}

// TestObservationInvariance is the lazy-integration property: syncing a
// meter at any set of intermediate observation points charges exactly the
// same integer durations as syncing once at the end. The comparison is
// exact (integer picoseconds), not epsilon-based.
func TestObservationInvariance(t *testing.T) {
	rng := sim.NewRNG(7)
	a := energy.NewMeter("a", testSpec(), nil)
	b := energy.NewMeter("b", testSpec(), nil)
	now := sim.Time(0)
	for i := 0; i < 1000; i++ {
		now = now.Add(sim.Duration(1 + rng.Uint64n(1_000_000)))
		st := energy.State(rng.Uint64n(2))
		a.SetState(now, st)
		b.SetState(now, st)
		// a gets extra observation points between transitions; b never
		// does. The points must be monotone — a backwards Sync is the
		// epoch-rebase convention (tested separately), not an observation.
		obsAt := now
		for j := rng.Uint64n(4); j > 0; j-- {
			obsAt = obsAt.Add(sim.Duration(rng.Uint64n(250_000)))
			a.Sync(obsAt)
		}
		now = now.Add(sim.Duration(1_000_000))
		a.Sync(now)
		b.Sync(now)
	}
	for st := energy.State(0); st < 2; st++ {
		if a.StateDur(st) != b.StateDur(st) {
			t.Fatalf("state %d: observed %v vs unobserved %v — intermediate syncs changed the charge",
				st, a.StateDur(st), b.StateDur(st))
		}
	}
}

// TestSyncBackwardsRebases pins the epoch convention: a Sync earlier than
// the integration origin un-charges nothing and rebases the origin (the
// behaviour that lets one meter span a workload run, a Stop, and a Go,
// each of which is its own timeline starting at 0).
func TestSyncBackwardsRebases(t *testing.T) {
	m := energy.NewMeter("dev", testSpec(), nil)
	m.Sync(1000)
	if got := m.StateDur(0); got != 1000 {
		t.Fatalf("StateDur(0) = %v, want 1000", got)
	}
	m.Sync(10) // new epoch: rebase, no charge
	if got := m.StateDur(0); got != 1000 {
		t.Fatalf("backwards sync changed charge: %v", got)
	}
	m.Sync(110) // 100 ps into the new epoch
	if got := m.StateDur(0); got != 1100 {
		t.Fatalf("StateDur(0) = %v after rebase+sync, want 1100", got)
	}
}

// TestJoules pins the export arithmetic against hand-computed values.
func TestJoules(t *testing.T) {
	m := energy.NewMeter("dev", testSpec(), tally{1, 3}.counts)
	m.SetState(sim.Time(sim.Second), 1)     // 1 s on @0.5 W
	m.Sync(sim.Time(0).Add(2 * sim.Second)) // 1 s off @0 W
	// The export multiplies counts by per-op joules at runtime, so compare
	// with a tolerance far below any physical figure, not bit-exactly
	// against Go's constant-folded arithmetic.
	wantOp := 2e-9 + 3*15e-9
	if got := m.OpJ(); math.Abs(got-wantOp) > 1e-20 {
		t.Errorf("OpJ = %v, want %v", got, wantOp)
	}
	if got := m.StateJ(); got != 0.5 {
		t.Errorf("StateJ = %v, want 0.5", got)
	}
	if got := m.TotalJ(); math.Abs(got-(wantOp+0.5)) > 1e-12 {
		t.Errorf("TotalJ = %v, want %v", got, wantOp+0.5)
	}
}

// TestSetOrderAndSnapshot pins registration-order iteration and the
// snapshot-delta primitive.
func TestSetOrderAndSnapshot(t *testing.T) {
	s := energy.NewSet()
	ops := make(tally, 2)
	m1 := s.Add(energy.NewMeter("first", testSpec(), ops.counts))
	m2 := s.Add(energy.NewMeter("second", testSpec(), nil))
	if got := s.Meters(); len(got) != 2 || got[0] != m1 || got[1] != m2 {
		t.Fatal("registration order not preserved")
	}
	before := s.SnapshotJ()
	ops[1]++ // +15 nJ
	after := s.SnapshotJ()
	if d := after[0] - before[0]; d != 15e-9 {
		t.Errorf("snapshot delta %v, want 15e-9", d)
	}
	if after[1] != before[1] {
		t.Errorf("uncharged meter moved: %v -> %v", before[1], after[1])
	}
}

// TestCopyResidency checks a set built by the same assembly picks up
// another set's state residency and then integrates exactly as the source
// does.
func TestCopyResidency(t *testing.T) {
	build := func() *energy.Set {
		s := energy.NewSet()
		s.Add(energy.NewMeter("a", testSpec(), nil))
		s.Add(energy.NewMeter("b", testSpec(), nil))
		return s
	}
	src := build()
	src.Meters()[0].SetState(100, 1)
	src.Meters()[1].Sync(250)
	dst := build()
	dst.CopyResidency(src)
	for _, s := range []*energy.Set{src, dst} {
		s.Sync(1000)
	}
	for i, m := range dst.Meters() {
		for st := energy.State(0); st < 2; st++ {
			if got, want := m.StateDur(st), src.Meters()[i].StateDur(st); got != want {
				t.Errorf("meter %d state %d: copy charged %v, source %v", i, st, got, want)
			}
		}
	}
	if got := dst.Meters()[0].StateDur(1); got != 900 {
		t.Errorf("copied meter charged %v to its copied state, want 900", got)
	}
}

// TestSpecsCalibration pins the state watts against power.Params: the
// reconciliation between the meter set and the system power curve depends
// on these being derived, not hand-typed.
func TestSpecsCalibration(t *testing.T) {
	p := power.Default()
	if got := energy.CPUCoreSpec(p).States[energy.CPUActive].W; got != p.CoreActiveW {
		t.Errorf("core active W = %v, want %v", got, p.CoreActiveW)
	}
	if got := energy.DRAMArraySpec(p, 6).States[energy.DRAMRetention].W; got != 6*p.DRAMDIMMW {
		t.Errorf("dram retention W = %v, want %v", got, 6*p.DRAMDIMMW)
	}
	if got := energy.PRAMArraySpec(p, 6).States[energy.PRAMPowered].W; got != 6*p.PRAMDIMMW {
		t.Errorf("pram powered W = %v, want %v", got, 6*p.PRAMDIMMW)
	}
}

// TestRegisterExportsMeter checks the registry wiring: op counters and
// joule gauges appear in the Prometheus exposition under the meter's
// prefix.
func TestRegisterExportsMeter(t *testing.T) {
	m := energy.NewMeter("dev", testSpec(), tally{1, 0}.counts)
	m.Sync(sim.Time(sim.Second))
	r := obs.NewRegistry()
	energy.Register(r, "energy_", m)
	text := string(r.PrometheusBytes())
	for _, want := range []string{
		"energy_dev_read_total 1",
		"energy_dev_write_total 0",
		"energy_dev_op_joules",
		"energy_dev_state_joules",
		"energy_dev_joules",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus exposition missing %q:\n%s", want, text)
		}
	}
}

// TestEmitCounters checks the Chrome counter-lane export: one "C" sample
// per meter, in nanojoules, passing the trace validator.
func TestEmitCounters(t *testing.T) {
	s := energy.NewSet()
	s.Add(energy.NewMeter("dev", testSpec(), tally{0, 2}.counts)) // 30 nJ
	tr := obs.NewTracer()
	energy.EmitCounters(tr, 5, tr.Lane("energy"), s)
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
	ev := tr.Events()[0]
	if ev.Kind != obs.KindCounterSample || ev.Name != "dev" || ev.Arg != 30 {
		t.Fatalf("event = %+v, want counter sample dev/30nJ", ev)
	}
	if err := obs.ValidateChromeTrace(obs.ChromeTraceBytes(nil, tr)); err != nil {
		t.Fatalf("counter lane fails trace validation: %v", err)
	}
}
