package lightpc_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	lightpc "repro"
	"repro/internal/energy"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestMeterSumMatchesSystemEnergy pins the reconciliation between the two
// energy models: the coarse system curve (RunResult.EnergyJ = busy-state
// watts × elapsed) and the per-device meter set. The meter specs are
// calibrated from the same power.Params, and every metered component is
// resident for the whole run window, so the static (state-power) joules
// must sum to the system figure exactly — the per-op dynamic energy is
// the meters' refinement on top (the residual DESIGN.md documents).
func TestMeterSumMatchesSystemEnergy(t *testing.T) {
	for _, kind := range []lightpc.Kind{lightpc.LegacyPC, lightpc.LightPCFull} {
		for _, name := range []string{"bzip2", "Redis"} { // single- and multi-threaded
			spec, ok := workload.ByName(name)
			if !ok {
				t.Fatalf("workload %q missing", name)
			}
			cfg := lightpc.DefaultConfig(kind)
			cfg.SampleOps = 5_000
			cfg.Energy = true
			p := lightpc.New(cfg)
			rr := p.Run(spec)

			var stateJ, opJ float64
			for _, m := range p.Energy().Meters() {
				stateJ += m.StateJ()
				opJ += m.OpJ()
			}
			if rr.EnergyJ <= 0 {
				t.Fatalf("%v/%s: system energy %v, want > 0", kind, name, rr.EnergyJ)
			}
			if rel := math.Abs(stateJ-rr.EnergyJ) / rr.EnergyJ; rel > 1e-9 {
				t.Errorf("%v/%s: meter state-joules %.12g vs system %.12g (rel err %.3g, want ≤ 1e-9)",
					kind, name, stateJ, rr.EnergyJ, rel)
			}
			if opJ <= 0 {
				t.Errorf("%v/%s: dynamic op-joules %v, want > 0 (workload charged no per-op energy)", kind, name, opJ)
			}
		}
	}
}

// TestEnergyOffMetersAbsent pins the disabled default: no meter set is
// built, and the run still works with every hot-path meter nil.
func TestEnergyOffMetersAbsent(t *testing.T) {
	spec, _ := workload.ByName("Redis")
	p := lightpc.New(lightpc.DefaultConfig(lightpc.LightPCFull))
	if p.Energy() != nil {
		t.Fatalf("Energy() = %v with Config.Energy=false, want nil", p.Energy())
	}
	rr := p.Run(spec)
	if rr.Elapsed <= 0 {
		t.Fatalf("run with energy off did not advance time")
	}
	stop := p.PowerFail(0, power.ATX())
	if len(stop.Phases) == 0 {
		t.Fatal("Stop recorded no phases")
	}
	for _, ph := range stop.Phases {
		if ph.J != 0 || ph.ByDevice != nil {
			t.Fatalf("Stop phase %+v carries energy with energy off", ph)
		}
	}
}

// meterCounts renders every meter of a platform as one line: its name,
// each op count in spec order, and each state's residency in picoseconds.
func meterCounts(p *lightpc.Platform) string {
	var b strings.Builder
	for _, m := range p.Energy().Meters() {
		b.WriteString(m.Name() + " ops")
		for i := range m.Spec().Ops {
			fmt.Fprintf(&b, " %d", m.OpCount(energy.Op(i)))
		}
		b.WriteString(" dur")
		for i := range m.Spec().States {
			fmt.Fprintf(&b, " %d", int64(m.StateDur(energy.State(i))))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestMeterCountsPinned pins every meter's integer op counts and per-state
// residency over each path that moves them: a Redis run, a fork that runs
// bzip2, a power cycle on both, DataStore writes, and a wear-seed remix on
// a wear-levelled OC-PMEM platform. energy.golden rounds to 0.1 µJ, and
// some ops cost the same (PSM port_read and port_write are both 0.2 nJ),
// so an op bound to the wrong device counter can leave the golden intact;
// these counts cannot.
func TestMeterCountsPinned(t *testing.T) {
	want := map[string]string{
		"LegacyPC/base": `memctrl ops 5000 dur 12524852911
dram ops 4541 4541 4304 696 78 dur 12524852911
core0 ops dur 12024852911 0 500000000
core1 ops dur 4780553911 3172219000 4572080000
core2 ops dur 4848913911 3020219000 4655720000
core3 ops dur 4918153911 2868219000 4738480000
core4 ops dur 4982553911 2716219000 4826080000
core5 ops dur 5048833911 2564219000 4911800000
core6 ops dur 5115433911 2412219000 4997200000
core7 ops dur 5179033911 2260219000 5085600000
`,
		"LegacyPC/fork": `memctrl ops 18750 dur 12943874481
dram ops 17389 17389 15343 3407 318 dur 12943874481
core0 ops dur 12443874481 0 500000000
core1 ops dur 5199575481 3172219000 4572080000
core2 ops dur 5267935481 3020219000 4655720000
core3 ops dur 5337175481 2868219000 4738480000
core4 ops dur 5401575481 2716219000 4826080000
core5 ops dur 5467855481 2564219000 4911800000
core6 ops dur 5534455481 2412219000 4997200000
core7 ops dur 5598055481 2260219000 5085600000
`,
		"LightPC-B/base": `psm ops 4304 736 0 736 0 0 dur 13236389055
pram ops 40320 5888 5888 dur 13236389055
core0 ops dur 12736389055 0 500000000
core1 ops dur 4952075055 3712219000 4572095000
core2 ops dur 5020435055 3560219000 4655735000
core3 ops dur 5089675055 3408219000 4738495000
core4 ops dur 5154075055 3256219000 4826095000
core5 ops dur 5220355055 3104219000 4911815000
core6 ops dur 5286955055 2952219000 4997215000
core7 ops dur 5350555055 2800219000 5085615000
`,
		"LightPC-B/fork": `psm ops 15343 3447 0 3447 0 0 dur 14623661351
pram ops 150320 27576 27576 dur 14623661351
core0 ops dur 14123661351 0 500000000
core1 ops dur 6339347351 3712219000 4572095000
core2 ops dur 6407707351 3560219000 4655735000
core3 ops dur 6476947351 3408219000 4738495000
core4 ops dur 6541347351 3256219000 4826095000
core5 ops dur 6607627351 3104219000 4911815000
core6 ops dur 6674227351 2952219000 4997215000
core7 ops dur 6737827351 2800219000 5085615000
`,
		"LightPC/base": `psm ops 4304 736 9 705 0 0 dur 13072385426
pram ops 6630 1410 1410 dur 13072385426
core0 ops dur 12572385426 0 500000000
core1 ops dur 4784069842 3712219000 4576096584
core2 ops dur 4852429842 3560219000 4659736584
core3 ops dur 4921669842 3408219000 4742496584
core4 ops dur 4986069842 3256219000 4830096584
core5 ops dur 5052349842 3104219000 4915816584
core6 ops dur 5118949842 2952219000 5001216584
core7 ops dur 5182549842 2800219000 5089616584
`,
		"LightPC/fork": `psm ops 15343 3447 42 3416 0 0 dur 13545176830
pram ops 27262 6832 6832 dur 13545176830
core0 ops dur 13045176830 0 500000000
core1 ops dur 5258050741 3712219000 4574907089
core2 ops dur 5326410741 3560219000 4658547089
core3 ops dur 5395650741 3408219000 4741307089
core4 ops dur 5460050741 3256219000 4828907089
core5 ops dur 5526330741 3104219000 4914627089
core6 ops dur 5592930741 2952219000 5000027089
core7 ops dur 5656530741 2800219000 5088427089
`,
		"LightPC/wear": `psm ops 12411 1339 4 1285 12 4097 dur 571906991
pram ops 24690 2570 2570 dur 571906991
core0 ops dur 571906991 0 0
core1 ops dur 571906991 0 0
core2 ops dur 571906991 0 0
core3 ops dur 571906991 0 0
core4 ops dur 571906991 0 0
core5 ops dur 571906991 0 0
core6 ops dur 571906991 0 0
core7 ops dur 571906991 0 0
`,
	}
	check := func(key string, p *lightpc.Platform) {
		t.Helper()
		if got := meterCounts(p); got != want[key] {
			t.Errorf("%s meters:\n%s\nwant:\n%s", key, got, want[key])
		}
	}
	// cycle power-fails and recovers p, writes through its DataStore (the
	// OC-PMEM kinds), and checks its meters.
	line := make([]byte, 64)
	cycle := func(key string, p *lightpc.Platform) {
		t.Helper()
		p.PowerFail(0, power.ATX())
		if _, err := p.Recover(0); err != nil {
			t.Fatalf("%s: recover: %v", key, err)
		}
		if ds := p.DataStore(); ds != nil {
			for l := uint64(0); l < 40; l++ {
				line[0] = byte(l)
				ds.WriteData(sim.Time(0).Add(sim.Duration(l)*sim.Microsecond), l*37, line)
			}
		}
		check(key, p)
	}
	for _, kind := range []lightpc.Kind{lightpc.LegacyPC, lightpc.LightPCB, lightpc.LightPCFull} {
		cfg := lightpc.DefaultConfig(kind)
		cfg.SampleOps = 5_000
		cfg.Energy = true
		base := lightpc.New(cfg)
		base.Run(mustWorkload(t, "Redis"))
		fork := base.Fork()
		fork.Run(mustWorkload(t, "bzip2"))
		cycle(kind.String()+"/base", base)
		cycle(kind.String()+"/fork", fork)
	}
	cfg := lightpc.DefaultConfig(lightpc.LightPCFull)
	cfg.SampleOps = 5_000
	cfg.Energy = true
	cfg.PSM.WearLevelLines = 1 << 12
	p := lightpc.New(cfg)
	p.Run(mustWorkload(t, "mcf"))
	p.PSM().RemixWearSeed(0, 99)
	check("LightPC/wear", p)
}

func mustWorkload(t *testing.T, name string) workload.Spec {
	t.Helper()
	spec, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("workload %q missing", name)
	}
	return spec
}
