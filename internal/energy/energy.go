// Package energy is the per-component joule accountant: an ecalogic-style
// component model where each device declares a Spec — energy-per-operation
// entries plus per-state power draws ({op → joules, state → watts}) — and a
// Meter accumulates against that spec in sim-time.
//
// A device's operations are counted once, by the device itself: a Meter
// keeps no op tally of its own. It is bound at construction to a Counts
// function that reads the counters of the devices it meters, and it calls
// that function only at export time. What a Meter does accumulate is state
// residency, as integer picoseconds (sim.Duration); joules are computed
// only at export time as Σ count×J/op + Σ duration×watts. A state
// transition is one subtraction and one addition (lazy idle integration:
// time is charged to the outgoing state on transition, never sampled on a
// clock). That makes two properties exact rather than approximate:
//
//   - determinism: exported joules are a pure function of the event
//     sequence in sim-time — no host clock, no map order, no float
//     accumulation-order sensitivity in the hot path — so energy output is
//     byte-identical at any -j / -p worker count;
//   - observation invariance: syncing a meter at t1 and then t2 charges
//     exactly the same integer durations as syncing once at t2.
//
// Disabled metering is the nil *Meter, which no-ops at zero cost on every
// hot method — the same discipline as the nil obs.Tracer.
package energy

import "repro/internal/sim"

// Op indexes a Spec's Ops table.
type Op uint32

// State indexes a Spec's States table. State 0 is the reset state of a
// fresh Meter.
type State uint32

// OpSpec is one energy-per-operation entry.
type OpSpec struct {
	Name string
	J    float64 // joules charged per occurrence
}

// StateSpec is one state-power entry.
type StateSpec struct {
	Name string
	W    float64 // watts drawn while resident in the state
}

// Spec declares a component's energy model. Specs are immutable after
// construction and may be shared by any number of meters.
type Spec struct {
	Component string // model name, e.g. "pram-array"
	Ops       []OpSpec
	States    []StateSpec
}

// Counts fills dst[op] with how many times each op of a meter's Spec has
// happened, read from the counters the metered devices keep. dst has one
// zeroed entry per Spec op, indexed by the spec's Op constants.
type Counts func(dst []uint64)

// Meter accumulates one device's energy against a Spec. The zero/nil meter
// is disabled: every hot method no-ops. A fresh meter starts in state 0 at
// sim-time 0.
type Meter struct {
	name     string
	spec     *Spec
	counts   Counts // nil when the spec has no ops
	stateDur []sim.Duration
	state    State
	since    sim.Time // integration origin of the current state residency
}

// NewMeter returns an enabled meter named name (the registry/report label)
// accumulating against spec, whose op counts are read through counts (nil
// for a spec without ops).
func NewMeter(name string, spec *Spec, counts Counts) *Meter {
	return &Meter{
		name:     name,
		spec:     spec,
		counts:   counts,
		stateDur: make([]sim.Duration, len(spec.States)),
	}
}

// Sync integrates the current state's residency up to now. A now earlier
// than the last observation point does not un-charge anything: it rebases
// the integration origin, which is how a meter survives the repo's
// convention that a workload run, an SnG Stop, and an SnG Go are separate
// timelines each starting at t=0. Nil-safe no-op when disabled.
//
//lightpc:zeroalloc
func (m *Meter) Sync(now sim.Time) {
	if m == nil {
		return
	}
	d := now.Sub(m.since)
	if d > 0 {
		m.stateDur[m.state] += d
	}
	if d != 0 {
		m.since = now
	}
}

// SetState charges the outgoing state up to now and enters s. Nil-safe
// no-op when disabled.
//
//lightpc:zeroalloc
func (m *Meter) SetState(now sim.Time, s State) {
	if m == nil {
		return
	}
	m.Sync(now)
	m.state = s
}

// Rebase resets the integration origin to now without charging — the start
// of a new timeline epoch. Nil-safe no-op when disabled.
//
//lightpc:zeroalloc
func (m *Meter) Rebase(now sim.Time) {
	if m == nil {
		return
	}
	m.since = now
}

// Name reports the meter's label ("" when disabled).
func (m *Meter) Name() string {
	if m == nil {
		return ""
	}
	return m.name
}

// Spec reports the meter's energy model (nil when disabled).
func (m *Meter) Spec() *Spec {
	if m == nil {
		return nil
	}
	return m.spec
}

// OpCount reports how many times op has happened on the metered devices.
func (m *Meter) OpCount(op Op) uint64 {
	if m == nil {
		return 0
	}
	return m.opCounts()[op]
}

// opCounts reads every op count of the spec from the bound devices.
func (m *Meter) opCounts() []uint64 {
	c := make([]uint64, len(m.spec.Ops))
	if m.counts != nil {
		m.counts(c)
	}
	return c
}

// StateDur reports the total residency charged to state s so far (time
// since the last Sync is not included — it has not been charged yet).
func (m *Meter) StateDur(s State) sim.Duration {
	if m == nil {
		return 0
	}
	return m.stateDur[s]
}

// OpJ reports the dynamic (per-operation) joules accumulated so far.
func (m *Meter) OpJ() float64 {
	if m == nil {
		return 0
	}
	var j float64
	for i, c := range m.opCounts() {
		j += float64(c) * m.spec.Ops[i].J
	}
	return j
}

// StateJ reports the static (state-power × residency) joules charged so
// far.
func (m *Meter) StateJ() float64 {
	if m == nil {
		return 0
	}
	var j float64
	for i, d := range m.stateDur {
		j += d.Seconds() * m.spec.States[i].W
	}
	return j
}

// TotalJ reports OpJ + StateJ.
func (m *Meter) TotalJ() float64 {
	if m == nil {
		return 0
	}
	return m.OpJ() + m.StateJ()
}

// Set is an insertion-ordered collection of meters — a platform's full
// device complement. The nil set is the disabled set. No map anywhere:
// iteration order is registration order, always.
type Set struct {
	meters []*Meter
}

// NewSet returns an enabled, empty set.
func NewSet() *Set { return &Set{} }

// Add appends m (and returns it, so wiring reads as one line). Nil set or
// nil meter no-ops.
func (s *Set) Add(m *Meter) *Meter {
	if s == nil || m == nil {
		return m
	}
	s.meters = append(s.meters, m)
	return m
}

// Meters reports the meters in registration order (nil when disabled).
func (s *Set) Meters() []*Meter {
	if s == nil {
		return nil
	}
	return s.meters
}

// Sync integrates every meter up to now.
//
//lightpc:zeroalloc
func (s *Set) Sync(now sim.Time) {
	if s == nil {
		return
	}
	for _, m := range s.meters {
		m.Sync(now)
	}
}

// Rebase resets every meter's integration origin to now without charging.
func (s *Set) Rebase(now sim.Time) {
	if s == nil {
		return
	}
	for _, m := range s.meters {
		m.Rebase(now)
	}
}

// CopyResidency gives each meter the state residency of the meter at the
// same position in src: its current state, that state's integration
// origin, and the duration charged to every state. A platform fork builds
// meters over its own devices with the same assembly as its source and
// then copies the source's residency, so its joules continue from the
// source's. Nil s or src no-ops.
func (s *Set) CopyResidency(src *Set) {
	if s == nil || src == nil {
		return
	}
	for i, m := range s.meters {
		from := src.meters[i]
		copy(m.stateDur, from.stateDur)
		m.state = from.state
		m.since = from.since
	}
}

// OpJ reports the set-wide dynamic joules.
func (s *Set) OpJ() float64 {
	if s == nil {
		return 0
	}
	var j float64
	for _, m := range s.meters {
		j += m.OpJ()
	}
	return j
}

// StateJ reports the set-wide static joules.
func (s *Set) StateJ() float64 {
	if s == nil {
		return 0
	}
	var j float64
	for _, m := range s.meters {
		j += m.StateJ()
	}
	return j
}

// TotalJ reports the set-wide total joules.
func (s *Set) TotalJ() float64 {
	if s == nil {
		return 0
	}
	var j float64
	for _, m := range s.meters {
		j += m.TotalJ()
	}
	return j
}

// SnapshotJ reports every meter's TotalJ in registration order — the
// phase-attribution primitive: snapshot at a phase boundary, subtract the
// previous snapshot, and the deltas are that phase's per-device joules.
func (s *Set) SnapshotJ() []float64 {
	if s == nil {
		return nil
	}
	out := make([]float64, len(s.meters))
	for i, m := range s.meters {
		out[i] = m.TotalJ()
	}
	return out
}
