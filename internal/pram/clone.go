package pram

// Clone returns a deep copy of the device's mutable state: RNG stream
// position, command-interface occupancy, cooling windows, wear counts, and
// the access counters.
func (d *Device) Clone() *Device {
	return &Device{
		cfg:         d.cfg,
		rng:         d.rng.Clone(),
		busyUntil:   d.busyUntil,
		inFlight:    d.inFlight.Clone(),
		wear:        d.wear.Clone(),
		reads:       d.reads,
		writes:      d.writes,
		conflicts:   d.conflicts,
		errInjected: d.errInjected,
	}
}
