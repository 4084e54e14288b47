package energy

import (
	"math"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Register exposes one meter through a registry: a CounterFunc per op
// (event counts read from the metered devices, exact) and GaugeFuncs for
// the derived joules. Sampling happens at export time, so registration
// costs the simulation paths nothing.
// Nil registry or nil meter no-ops.
func Register(r *obs.Registry, prefix string, m *Meter) {
	if r == nil || m == nil {
		return
	}
	base := prefix + m.name + "_"
	for i := range m.spec.Ops {
		op := Op(i)
		r.CounterFunc(base+m.spec.Ops[i].Name+"_total",
			"occurrences of the "+m.spec.Component+" "+m.spec.Ops[i].Name+" operation",
			func() uint64 { return m.OpCount(op) })
	}
	r.GaugeFunc(base+"op_joules", "dynamic (per-operation) energy of "+m.name, m.OpJ)
	r.GaugeFunc(base+"state_joules", "static (state-power) energy of "+m.name, m.StateJ)
	r.GaugeFunc(base+"joules", "total accumulated energy of "+m.name, m.TotalJ)
}

// RegisterSet registers every meter in the set under prefix.
func RegisterSet(r *obs.Registry, prefix string, s *Set) {
	if r == nil || s == nil {
		return
	}
	for _, m := range s.meters {
		Register(r, prefix, m)
	}
}

// EmitCounters writes one cumulative counter sample per meter onto the
// tracer's lane at time at — a Chrome trace-event "C" row per device, in
// integer nanojoules so the lanes stay monotone and byte-stable. Nil
// tracer or nil set no-ops.
func EmitCounters(tr *obs.Tracer, at sim.Time, lane obs.Lane, s *Set) {
	if tr == nil || s == nil {
		return
	}
	for _, m := range s.meters {
		tr.Counter(at, lane, "energy", m.name, "nJ", int64(math.Round(m.TotalJ()*1e9)))
	}
}
