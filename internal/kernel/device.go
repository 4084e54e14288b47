package kernel

import (
	"fmt"

	"repro/internal/sim"
)

// DPMState tracks a device through the standard device-power-management
// callback ladder (Section IV-B, Figure 10).
type DPMState int

// Device power states in suspension order.
const (
	DevActive DPMState = iota
	DevPrepared
	DevSuspended
	DevOff // after dpm_suspend_noirq: context saved, interrupts off
)

// String names the state.
func (s DPMState) String() string {
	switch s {
	case DevActive:
		return "active"
	case DevPrepared:
		return "prepared"
	case DevSuspended:
		return "suspended"
	case DevOff:
		return "off"
	default:
		return fmt.Sprintf("dpm(%d)", int(s))
	}
}

// Device is one driver entry on dpm_list. Costs model the driver's callback
// work; Context is the device register state that must round-trip through
// the DCB; Peripheral marks SPI/GPIO-style devices whose MMIO regions
// Auto-Stop copies manually.
type Device struct {
	Name  string
	Index int

	PrepareCost sim.Duration
	SuspendCost sim.Duration
	NoIrqCost   sim.Duration
	ResumeCost  sim.Duration

	State      DPMState
	Context    uint64
	Peripheral bool
	MMIO       uint64 // memory-mapped register value (peripherals)

	dcbAddr uint64
}

// dcbBase is the reserved OC-PMEM region holding device control blocks.
const dcbBase = 0xD0_0000_0000

// init fills the zero device d as device idx, with deterministic per-index
// callback costs in the few-to-tens-of-microseconds band real drivers show.
func (d *Device) init(idx int, rng *sim.RNG) {
	*d = Device{
		Name:        deviceNames.at(idx),
		Index:       idx,
		PrepareCost: sim.FromNanoseconds(1000 + float64(rng.Intn(2000))),
		SuspendCost: sim.FromNanoseconds(3500 + float64(rng.Intn(8500))),
		NoIrqCost:   sim.FromNanoseconds(1500 + float64(rng.Intn(2500))),
		ResumeCost:  sim.FromNanoseconds(4000 + float64(rng.Intn(8000))),
		Context:     rng.Uint64(),
		dcbAddr:     dcbBase + uint64(idx)*16,
	}
	if idx%37 == 0 {
		d.Peripheral = true
		d.MMIO = rng.Uint64()
	}
}

// TotalSuspendCost is the serial dpm work to take the device down.
func (d *Device) TotalSuspendCost() sim.Duration {
	return d.PrepareCost + d.SuspendCost + d.NoIrqCost
}

// Prepare runs dpm_prepare(): block further probing.
func (d *Device) Prepare() error {
	if d.State != DevActive {
		return fmt.Errorf("kernel: %s: prepare in state %v", d.Name, d.State)
	}
	d.State = DevPrepared
	return nil
}

// Suspend runs dpm_suspend(): quiesce I/O, disable interrupts, power down.
func (d *Device) Suspend() error {
	if d.State != DevPrepared {
		return fmt.Errorf("kernel: %s: suspend in state %v", d.Name, d.State)
	}
	d.State = DevSuspended
	return nil
}

// SuspendNoIrq runs dpm_suspend_noirq(): store the device state to its DCB
// in the persistent bank.
func (d *Device) SuspendNoIrq(ocpmem *Bank) error {
	if d.State != DevSuspended {
		return fmt.Errorf("kernel: %s: suspend_noirq in state %v", d.Name, d.State)
	}
	ocpmem.Write(d.dcbAddr, d.Context)
	if d.Peripheral {
		// Peripheral MMIO regions are not physically on OC-PMEM; the DCB
		// carries them too (Section IV-B).
		ocpmem.Write(d.dcbAddr+8, d.MMIO)
	}
	d.State = DevOff
	// The live registers are gone once power drops.
	d.Context = 0
	d.MMIO = 0
	return nil
}

// ResumeNoIrq runs dpm_resume_noirq(): restore state from the DCB and
// re-enable interrupts.
func (d *Device) ResumeNoIrq(ocpmem *Bank) error {
	if d.State != DevOff {
		return fmt.Errorf("kernel: %s: resume_noirq in state %v", d.Name, d.State)
	}
	d.Context = ocpmem.Read(d.dcbAddr)
	if d.Peripheral {
		d.MMIO = ocpmem.Read(d.dcbAddr + 8)
	}
	d.State = DevSuspended
	return nil
}

// Resume runs dpm_resume(): recover the device context.
func (d *Device) Resume() error {
	if d.State != DevSuspended {
		return fmt.Errorf("kernel: %s: resume in state %v", d.Name, d.State)
	}
	d.State = DevPrepared
	return nil
}

// Complete runs dpm_complete(): device fully back.
func (d *Device) Complete() error {
	if d.State != DevPrepared {
		return fmt.Errorf("kernel: %s: complete in state %v", d.Name, d.State)
	}
	d.State = DevActive
	return nil
}
