package pram

import "repro/internal/sim"

// CloneInto makes dst a deep copy of the device's mutable state: every
// die's RNG stream position, command-interface occupancy, cooling windows,
// wear counts, and the access counters. The copy's dies draw from the
// first slots of rngs, which receive the source's stream positions, and
// CloneInto returns the slots it left; a caller cloning many devices
// passes slots of one Device slab and the rest of one RNG slab.
func (d *Device) CloneInto(dst *Device, rngs []sim.RNG) []sim.RNG {
	n := len(d.rngs)
	copy(rngs[:n], d.rngs)
	*dst = Device{
		cfg:         d.cfg,
		rngs:        rngs[:n:n],
		busyUntil:   d.busyUntil,
		inFlight:    d.inFlight.Clone(),
		wear:        d.wear.Clone(),
		reads:       d.reads,
		writes:      d.writes,
		conflicts:   d.conflicts,
		errInjected: d.errInjected,
	}
	return rngs[n:]
}
