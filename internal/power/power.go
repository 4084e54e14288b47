// Package power models system power, integrated energy, and PSU hold-up.
//
// Component budgets are calibrated to the paper's measurements: LegacyPC
// (DRAM working memory) draws ~18.9 W, LightPC (OC-PMEM only) ~5.3 W — 72%
// lower — because PRAM needs no refresh and the DRAM controller complex
// disappears (Figure 18). The PSU model turns stored energy into a
// load-dependent hold-up time (Figure 8a): the ATX unit measures 22 ms and
// the server unit 55 ms under full load, against the 16 ms the ATX
// specification guarantees.
package power

import (
	"fmt"

	"repro/internal/sim"
)

// Params is the per-component power budget in watts.
type Params struct {
	CoreActiveW float64 // one fully busy core
	CoreIdleW   float64 // one idle (clock-gated) core

	DRAMDIMMW float64 // one DRAM DIMM incl. refresh burden
	DRAMCtrlW float64 // DRAM + NMEM controller complex

	PRAMDIMMW float64 // one Bare-NVDIMM (no refresh, low static)
	PSMW      float64 // persistent support module
	PMEMDIMMW float64 // one Optane-style PMEM DIMM (firmware + buffers)
}

// Default calibrates to Section VI: 8 active cores + 6 DRAM DIMMs + the
// controller complex ≈ 18.9 W; 8 cores + PSM + 6 Bare-NVDIMMs ≈ 5.3 W.
func Default() Params {
	return Params{
		CoreActiveW: 0.45,
		CoreIdleW:   0.10,
		DRAMDIMMW:   2.20,
		DRAMCtrlW:   2.10,
		PRAMDIMMW:   0.20,
		PSMW:        0.50,
		PMEMDIMMW:   2.60,
	}
}

// State describes which components are powered and how busy the cores are.
type State struct {
	ActiveCores int
	IdleCores   int

	DRAMDIMMs int // powered DRAM DIMMs (LegacyPC working memory / NMEM cache)
	DRAMCtrl  bool

	PRAMDIMMs int // powered Bare-NVDIMMs
	PSM       bool

	PMEMDIMMs int // powered Optane-style DIMMs
}

// LegacyPCBusy is the DRAM-only platform under full load.
func LegacyPCBusy() State {
	return State{ActiveCores: 8, DRAMDIMMs: 6, DRAMCtrl: true}
}

// LightPCBusy is the OC-PMEM platform under full load.
func LightPCBusy() State {
	return State{ActiveCores: 8, PRAMDIMMs: 6, PSM: true}
}

// Watts evaluates the state's power draw.
func (p Params) Watts(s State) float64 {
	w := float64(s.ActiveCores)*p.CoreActiveW + float64(s.IdleCores)*p.CoreIdleW
	w += float64(s.DRAMDIMMs) * p.DRAMDIMMW
	if s.DRAMCtrl {
		w += p.DRAMCtrlW
	}
	w += float64(s.PRAMDIMMs) * p.PRAMDIMMW
	if s.PSM {
		w += p.PSMW
	}
	w += float64(s.PMEMDIMMs) * p.PMEMDIMMW
	return w
}

// EnergyJ converts a power draw sustained for d into joules.
func EnergyJ(watts float64, d sim.Duration) float64 {
	return watts * d.Seconds()
}

// PSU models a power supply's residual stored energy after AC loss. The
// hold-up time is the stored energy divided by the load — so a busy system
// drains it faster than an idle one (Figure 8a).
type PSU struct {
	Name string
	// StoredJ is the usable energy in the bulk capacitors between AC loss
	// and the rails dropping to 95% of nominal.
	StoredJ float64
	// SpecHoldUp is the documented worst-case window (ATX: 16 ms); SnG
	// budgets against this, not the measured value.
	SpecHoldUp sim.Duration
}

// ATX models the standard Super Flower unit: 22 ms measured under the
// 18.9 W busy load.
func ATX() PSU {
	return PSU{
		Name:       "ATX",
		StoredJ:    0.022 * 18.9,
		SpecHoldUp: 16 * sim.Millisecond,
	}
}

// Server models the Dell server-class unit: 55 ms under the same load.
func Server() PSU {
	return PSU{
		Name:       "Server",
		StoredJ:    0.055 * 18.9,
		SpecHoldUp: 55 * sim.Millisecond,
	}
}

// PSUByName resolves a supply by the name the CLIs take: "atx" or "server".
func PSUByName(name string) (PSU, error) {
	switch name {
	case "atx":
		return ATX(), nil
	case "server":
		return Server(), nil
	}
	return PSU{}, fmt.Errorf("unknown PSU %q (want atx or server)", name)
}

// HoldUp reports how long the rails stay in spec at the given load.
func (p PSU) HoldUp(loadW float64) sim.Duration {
	if loadW <= 0 {
		return sim.Second // effectively unbounded at no load
	}
	return sim.FromSeconds(p.StoredJ / loadW)
}
