package persist

import (
	"testing"

	"repro/internal/power"
	"repro/internal/sim"
)

// typicalProfile approximates a full Table II workload run on the
// prototype: ~12 s of execution, ~4.8 B instructions, 400 MB resident.
func typicalProfile() Profile {
	return Profile{
		Name:           "typical",
		ExecTime:       12 * sim.Second,
		Instructions:   4_800_000_000,
		FootprintBytes: 400 << 20,
		DirtyFraction:  0.5,
	}
}

func ratioTo(light Outcome, o Outcome) float64 {
	return float64(o.Total()) / float64(light.Total())
}

func TestMechanismOrdering(t *testing.T) {
	// Figure 19: LightPC < SysPC < S-CheckPC < A-CheckPC.
	p := typicalProfile()
	light := NewLightPC().Run(p)
	sys := NewSysPC().Run(p)
	sck := NewSCheckPC().Run(p)
	ack := NewACheckPC().Run(p)
	if !(light.Total() < sys.Total() && sys.Total() < sck.Total() && sck.Total() < ack.Total()) {
		t.Fatalf("ordering broken: light=%v sys=%v sck=%v ack=%v",
			light.Total(), sys.Total(), sck.Total(), ack.Total())
	}
}

func TestPaperRatios(t *testing.T) {
	// Section VI-B: LightPC shortens execution vs SysPC, A-CheckPC,
	// S-CheckPC by 1.6×, 8.8×, 2.4× respectively. Allow generous bands —
	// these are per-suite averages in the paper.
	p := typicalProfile()
	light := NewLightPC().Run(p)
	cases := []struct {
		o        Outcome
		lo, hi   float64
		paperVal float64
	}{
		{NewSysPC().Run(p), 1.25, 2.1, 1.6},
		{NewACheckPC().Run(p), 4.0, 12, 8.8},
		{NewSCheckPC().Run(p), 1.8, 3.2, 2.4},
	}
	for _, c := range cases {
		r := ratioTo(light, c.o)
		if r < c.lo || r > c.hi {
			t.Errorf("%s/LightPC = %.2f, want ~%.1f (band %.1f–%.1f)",
				c.o.Mechanism, r, c.paperVal, c.lo, c.hi)
		}
	}
}

func TestLightPCControlShare(t *testing.T) {
	// SnG accounts for ~0.3% of total execution (Section VI-B).
	p := typicalProfile()
	light := NewLightPC().Run(p)
	share := float64(light.PersistControl) / float64(light.Total())
	if share > 0.01 {
		t.Fatalf("LightPC persistence control share = %.4f, want < 1%%", share)
	}
}

func TestFlushVsHoldUpWindows(t *testing.T) {
	// Figure 20: SysPC's flush is >>100× the ATX hold-up; S-CheckPC's is a
	// few ×; LightPC's Stop fits inside.
	p := typicalProfile()
	atx := power.ATX().HoldUp(18.9)
	srv := power.Server().HoldUp(18.9)

	sys := NewSysPC().Run(p)
	rAtx := float64(sys.FlushAtPowerDown) / float64(atx)
	if rAtx < 80 || rAtx > 300 {
		t.Errorf("SysPC flush / ATX hold-up = %.0f, want ~172", rAtx)
	}

	sck := NewSCheckPC().Run(p)
	rAtx = float64(sck.FlushAtPowerDown) / float64(atx)
	if rAtx < 1.5 || rAtx > 7 {
		t.Errorf("S-CheckPC flush / ATX hold-up = %.1f, want ~3.5", rAtx)
	}
	rSrv := float64(sck.FlushAtPowerDown) / float64(srv)
	if rSrv < 0.8 || rSrv > 3 {
		t.Errorf("S-CheckPC flush / server hold-up = %.1f, want ~1.4", rSrv)
	}

	light := NewLightPC().Run(p)
	if sim.Duration(light.FlushAtPowerDown) > sim.Duration(power.ATX().SpecHoldUp) {
		t.Errorf("LightPC Stop (%v) exceeds the 16 ms ATX spec", light.FlushAtPowerDown)
	}
}

func TestSysPCNeedsBackupPower(t *testing.T) {
	p := typicalProfile()
	sys := NewSysPC().Run(p)
	if !sys.ExceedsHoldUp {
		t.Fatal("SysPC should exceed every hold-up window")
	}
	light := NewLightPC().Run(p)
	if light.ExceedsHoldUp {
		t.Fatal("LightPC must fit the hold-up window")
	}
}

func TestCheckpointersColdReboot(t *testing.T) {
	p := typicalProfile()
	if !NewACheckPC().Run(p).ColdReboot || !NewSCheckPC().Run(p).ColdReboot {
		t.Fatal("checkpoint mechanisms cannot restore kernel state: cold reboot")
	}
	if NewLightPC().Run(p).ColdReboot || NewSysPC().Run(p).ColdReboot {
		t.Fatal("LightPC/SysPC restore full state without cold reboot")
	}
}

func TestPowerBands(t *testing.T) {
	// Figure 21b: SysPC hibernates at ~20 W; LightPC's Stop runs at
	// ~4.5 W and Go at ~4.4 W.
	p := typicalProfile()
	sys := NewSysPC().Run(p)
	light := NewLightPC().Run(p)
	if sys.PowerDownW < 19 || sys.PowerDownW > 21 {
		t.Errorf("SysPC power-down = %.1f W", sys.PowerDownW)
	}
	if light.PowerDownW > 5 || light.RecoveryW > 5 {
		t.Errorf("LightPC down/up = %.1f/%.1f W", light.PowerDownW, light.RecoveryW)
	}
	// LightPC's Stop energy is tens of mJ (paper: 53 mJ), SysPC's tens of J.
	if light.EnergyDownJ() > 0.2 {
		t.Errorf("LightPC Stop energy = %.3f J, want ~0.05", light.EnergyDownJ())
	}
	if sys.EnergyDownJ() < 10 {
		t.Errorf("SysPC dump energy = %.1f J, want ~20", sys.EnergyDownJ())
	}
}

func TestSysPCRecoveryFasterLoadThanDump(t *testing.T) {
	p := typicalProfile()
	sys := NewSysPC().Run(p)
	if sys.Recovery >= sys.FlushAtPowerDown {
		t.Fatal("sequential image load should beat the scatter dump")
	}
}

func TestACheckPCDominatedByControl(t *testing.T) {
	// Figure 19b: A-CheckPC's cycles are mostly persistence control.
	p := typicalProfile()
	ack := NewACheckPC().Run(p)
	if ack.PersistControl < ack.BenchTime {
		t.Fatal("A-CheckPC control should dominate execution")
	}
	if ack.Checkpoints < 1_000_000 {
		t.Fatalf("A-CheckPC checkpoints = %d, want per-function frequency", ack.Checkpoints)
	}
}

func TestSCheckPCBetween(t *testing.T) {
	// S-CheckPC reduces A-CheckPC latency by ~73% but stays ~52% worse
	// than SysPC.
	p := typicalProfile()
	ack := NewACheckPC().Run(p)
	sck := NewSCheckPC().Run(p)
	sys := NewSysPC().Run(p)
	reduction := 1 - float64(sck.Total())/float64(ack.Total())
	if reduction < 0.5 || reduction > 0.9 {
		t.Errorf("S-CheckPC reduces A-CheckPC by %.0f%%, want ~73%%", 100*reduction)
	}
	worse := float64(sck.Total())/float64(sys.Total()) - 1
	if worse < 0.2 || worse > 1.0 {
		t.Errorf("S-CheckPC is %.0f%% worse than SysPC, want ~52%%", 100*worse)
	}
}

func TestAllMechanisms(t *testing.T) {
	ms := All()
	if len(ms) != 4 {
		t.Fatalf("All() = %d mechanisms", len(ms))
	}
	names := map[string]bool{}
	for _, m := range ms {
		names[m.Name()] = true
		o := m.Run(typicalProfile())
		if o.Total() <= 0 || o.Recovery <= 0 {
			t.Errorf("%s produced empty outcome", m.Name())
		}
	}
	for _, want := range []string{"SysPC", "A-CheckPC", "S-CheckPC", "LightPC"} {
		if !names[want] {
			t.Errorf("missing mechanism %s", want)
		}
	}
}

func TestTinyProfileStillWorks(t *testing.T) {
	p := Profile{Name: "tiny", ExecTime: sim.Millisecond, Instructions: 100,
		FootprintBytes: 1 << 20, DirtyFraction: 0.1}
	for _, m := range All() {
		o := m.Run(p)
		if o.Checkpoints == 0 {
			t.Errorf("%s: zero checkpoints on tiny profile", m.Name())
		}
	}
}

// TestRunReusesItsRoundTrip pins that a mechanism's power cycle, which SysPC
// and LightPC run once and reuse, gives every later Run what a fresh
// mechanism's first Run gives, on any profile and after a seed change.
func TestRunReusesItsRoundTrip(t *testing.T) {
	tiny := Profile{Name: "tiny", ExecTime: sim.Millisecond, Instructions: 100,
		FootprintBytes: 1 << 20, DirtyFraction: 0.1}
	for i, m := range All() {
		m.Run(typicalProfile())
		got, want := m.Run(tiny), All()[i].Run(tiny)
		if got != want {
			t.Errorf("%s: second Run = %+v, a fresh mechanism's = %+v (FlushAtPowerDown and Recovery included)",
				m.Name(), got, want)
		}
	}

	l := NewLightPC()
	l.Run(tiny)
	l.KernelSeed = 7
	fresh := &LightPC{KernelSeed: 7}
	if got, want := l.Run(tiny), fresh.Run(tiny); got != want {
		t.Errorf("LightPC after a seed change = %+v, a fresh mechanism's at that seed = %+v", got, want)
	}
}
