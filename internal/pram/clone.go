package pram

import "repro/internal/sim"

// CloneInto makes dst a deep copy of the device's mutable state: RNG stream
// position, command-interface occupancy, cooling windows, wear counts, and
// the access counters. The copy draws from rng, which receives the
// source's stream position; a caller cloning many devices passes slots of
// one Device slab and one RNG slab.
func (d *Device) CloneInto(dst *Device, rng *sim.RNG) {
	*rng = *d.rng
	*dst = Device{
		cfg:         d.cfg,
		rng:         rng,
		busyUntil:   d.busyUntil,
		inFlight:    d.inFlight.Clone(),
		wear:        d.wear.Clone(),
		reads:       d.reads,
		writes:      d.writes,
		conflicts:   d.conflicts,
		errInjected: d.errInjected,
	}
}
