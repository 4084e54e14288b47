package persist

import (
	"repro/internal/sim"
)

// This file implements the two related-work mechanisms Section VII
// contrasts SnG against. They share the Mechanism interface so the
// extension experiment can put them on the same axes.

// EADR models Intel's enhanced asynchronous DRAM refresh: on the power
// event signal the platform flushes CPU caches into the PMEM domain.
// That resembles the tail end of Stop, but there is no EP-cut — no
// process lockdown, no ordered device offlining, no machine-register
// capture — so cachelines keep changing while the flush runs and the
// system cannot restore process/device contexts on recovery: applications
// must implement their own crash recovery over the durable data, behind a
// cold reboot.
type EADR struct {
	// CacheBytes is the cache footprint flushed at the power signal.
	CacheBytes float64
	// FlushBps is the cache→PMEM drain rate.
	FlushBps float64
}

// NewEADR sizes the flush for a server cache hierarchy draining at the
// PMEM write bandwidth.
func NewEADR() *EADR {
	return &EADR{CacheBytes: 40 << 20, FlushBps: 4e9}
}

// Name identifies the mechanism.
func (e *EADR) Name() string { return "eADR" }

// Run executes the profile under eADR.
func (e *EADR) Run(p Profile) Outcome {
	flush := dumpTime(e.CacheBytes, e.FlushBps)
	return Outcome{
		Mechanism:      e.Name(),
		BenchTime:      p.ExecTime,
		PersistControl: flush,
		// The flush easily fits the hold-up window — that part matches
		// SnG. What is missing is consistency, not speed.
		FlushAtPowerDown: flush,
		Recovery:         coldBootTime, // plus app-level recovery, unmodeled
		PowerDownW:       17.5,
		RecoveryW:        18.9,
		ColdReboot:       true,
		Checkpoints:      1,
	}
}

// WSP models whole-system persistence (flash-backed flush-on-fail): on
// power loss, DIMM-side controllers stream caches and all of DRAM into
// flash, powered by ultracapacitors; the dump takes up to ~10 s, far past
// any PSU hold-up, and the capacitors need a comparable recharge time
// before the system can survive another failure (Section VII lists both
// constraints, plus the capacity ceiling at DRAM size).
type WSP struct {
	// DRAMBytes is the volatile state the DIMM controllers must dump.
	DRAMBytes float64
	// FlashBps is the DIMM-side flash streaming rate.
	FlashBps float64
	// Recharge is the ultracapacitor recharge time after a dump.
	Recharge sim.Duration
}

// NewWSP uses the paper's characterization: ~10 s dumps and a similar
// recharge window.
func NewWSP() *WSP {
	return &WSP{
		DRAMBytes: 2e9,
		FlashBps:  0.2e9,
		Recharge:  10 * sim.Second,
	}
}

// Name identifies the mechanism.
func (w *WSP) Name() string { return "WSP" }

// Run executes the profile under WSP.
func (w *WSP) Run(p Profile) Outcome {
	dump := dumpTime(w.DRAMBytes, w.FlashBps)
	load := dumpTime(w.DRAMBytes, w.FlashBps*2)
	return Outcome{
		Mechanism:        w.Name(),
		BenchTime:        p.ExecTime,
		PersistControl:   dump + load,
		FlushAtPowerDown: dump,
		Recovery:         load,
		PowerDownW:       12.0, // DIMM-side dump, cores already dark
		RecoveryW:        18.9,
		ExceedsHoldUp:    true, // survives only via the ultracapacitors
		Checkpoints:      1,
	}
}

// VulnerableWindow reports how long after a power cycle a second failure
// is fatal for WSP (the ultracapacitor recharge). SnG has no such window:
// the EP-cut commits within the hold-up time, every time.
func (w *WSP) VulnerableWindow() sim.Duration { return w.Recharge }
