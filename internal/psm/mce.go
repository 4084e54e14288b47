package psm

import (
	"fmt"

	"repro/internal/linetab"
	"repro/internal/sim"
)

// MCEPolicy selects how the host reacts to an error-containment bit the
// ECC could not clear. The paper implements the reset policy and leaves
// the rest as future work ("the MCE handler can be implemented in the
// various ways", Section V-A); all three are provided here.
type MCEPolicy int

// Machine-check policies.
const (
	// MCEReset wipes OC-PMEM through the reset port and requires a cold
	// boot — the paper's current implementation.
	MCEReset MCEPolicy = iota
	// MCERetry re-issues the read once before escalating (transient
	// faults).
	MCERetry
	// MCEPoison marks the line poisoned and delivers the error to the
	// consuming process only (containment without losing the machine).
	MCEPoison
)

// String names the policy.
func (p MCEPolicy) String() string {
	switch p {
	case MCEReset:
		return "reset"
	case MCERetry:
		return "retry"
	case MCEPoison:
		return "poison"
	default:
		return fmt.Sprintf("mce(%d)", int(p))
	}
}

// mceState tracks policy bookkeeping. poisoned stays nil until the first
// poison, so the per-read Poisoned check on a healthy machine is one nil
// compare.
type mceState struct {
	poisoned *linetab.Bits
	resets   uint64
	retries  uint64
	poisons  uint64
}

// handleUncontained applies the configured policy to a corrupted read that
// neither XCC nor the symbol code repaired. It returns the (possibly
// extended) completion time and whether the data was ultimately served.
func (p *PSM) handleUncontained(now sim.Time, line uint64) (sim.Time, bool) {
	switch p.cfg.MCE {
	case MCERetry:
		p.mce.retries++
		// One retry: re-sense the granules. The injected-error stream is
		// independent per read, so transient faults usually clear.
		d, _, inner := p.mapLine(line)
		done, _, corrupted := d.ReadLine(now, inner)
		if !corrupted {
			return done, true
		}
		p.raiseMCE(done, line)
		p.resetForColdBoot()
		return done, false
	case MCEPoison:
		p.mce.poisons++
		if p.mce.poisoned == nil {
			p.mce.poisoned = linetab.NewBits()
		}
		p.mce.poisoned.Set(line)
		p.raiseMCE(now, line)
		return now, false
	default: // MCEReset
		p.raiseMCE(now, line)
		p.resetForColdBoot()
		return now, false
	}
}

func (p *PSM) resetForColdBoot() {
	p.mce.resets++
	p.Reset()
}

// Poisoned reports whether a line carries a poison marker (MCEPoison).
//
//lightpc:zeroalloc
func (p *PSM) Poisoned(line uint64) bool {
	return p.mce.poisoned != nil && p.mce.poisoned.Get(line)
}

// MCECounters reports per-policy bookkeeping: resets performed, retries
// attempted, lines poisoned.
func (p *PSM) MCECounters() (resets, retries, poisons uint64) {
	return p.mce.resets, p.mce.retries, p.mce.poisons
}
