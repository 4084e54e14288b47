package persist

import (
	"testing"

	"repro/internal/power"
	"repro/internal/sim"
)

func TestEADRFlushFitsHoldUp(t *testing.T) {
	// Section VII: eADR's flush resembles the tail of Stop — it fits the
	// window; what it lacks is the EP-cut.
	e := NewEADR()
	o := e.Run(typicalProfile())
	if o.FlushAtPowerDown > sim.Duration(power.ATX().SpecHoldUp) {
		t.Fatalf("eADR flush %v exceeds the window", o.FlushAtPowerDown)
	}
	if !o.ColdReboot {
		t.Fatal("eADR cannot restore execution state: must cold reboot")
	}
	if o.ExceedsHoldUp {
		t.Fatal("eADR needs no backup source")
	}
}

func TestWSPNeedsUltracapsAndIsSlow(t *testing.T) {
	w := NewWSP()
	o := w.Run(typicalProfile())
	if !o.ExceedsHoldUp {
		t.Fatal("WSP's dump outlives every PSU window")
	}
	// ~10 s dumps (Section VII).
	if o.FlushAtPowerDown < 5*sim.Second || o.FlushAtPowerDown > 20*sim.Second {
		t.Fatalf("WSP dump = %v, paper ~10 s", o.FlushAtPowerDown)
	}
	if o.ColdReboot {
		t.Fatal("WSP restores memory state (no cold reboot)")
	}
}

func TestWSPConsecutiveFailureWindow(t *testing.T) {
	// Section VII: a second failure during the ultracapacitor recharge is
	// fatal for WSP. SnG recommits an EP-cut inside every hold-up window,
	// so it has no such vulnerability.
	w := NewWSP()
	if w.VulnerableWindow() <= 0 || w.VulnerableWindow() != w.Recharge {
		t.Fatalf("WSP's vulnerable window = %v, want the %v ultracapacitor recharge",
			w.VulnerableWindow(), w.Recharge)
	}
	light := NewLightPC().Run(typicalProfile())
	if light.FlushAtPowerDown > sim.Duration(power.ATX().SpecHoldUp) {
		t.Fatal("SnG must fit the window (no vulnerable period)")
	}
}

func TestRelatedMechanismsComparableToSnG(t *testing.T) {
	p := typicalProfile()
	light := NewLightPC().Run(p)
	eadr := NewEADR().Run(p)
	wsp := NewWSP().Run(p)
	// SnG's Stop and eADR's flush are the same order of magnitude; WSP is
	// three orders slower.
	if eadr.FlushAtPowerDown > 10*light.FlushAtPowerDown {
		t.Fatalf("eADR flush %v should be SnG-like (%v)",
			eadr.FlushAtPowerDown, light.FlushAtPowerDown)
	}
	if wsp.FlushAtPowerDown < 100*light.FlushAtPowerDown {
		t.Fatalf("WSP dump %v should dwarf SnG's Stop (%v)",
			wsp.FlushAtPowerDown, light.FlushAtPowerDown)
	}
}
