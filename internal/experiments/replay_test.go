package experiments

import (
	"slices"
	"testing"

	lightpc "repro"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestReplayedGridsMatchRegeneration checks the harnesses that generate a
// workload's streams once and replay them on every platform, mode or
// frequency against a reference that regenerates the streams for every
// run, at seed 2, which no golden pins.
func TestReplayedGridsMatchRegeneration(t *testing.T) {
	o := QuickOptions()
	o.Seed = 2
	suite := specs(o)

	rows4, _ := Fig04PersistControl(o)
	for mi, mode := range Modes() {
		var sumT sim.Duration
		var sumW float64
		for _, s := range suite {
			co := o.cell("fig4/" + s.Name)
			r := runMode(mode, cpu.Fanout(s, cpu.DefaultConfig().Cores, co.SampleOps, co.Seed), co.Seed)
			sumT += r.elapsed
			sumW += r.watts
		}
		want := Fig04Row{Mode: mode, MeanElapsed: sumT / sim.Duration(len(suite)), MeanPowerW: sumW / float64(len(suite))}
		if rows4[mi] != want {
			t.Errorf("fig4 %s: %+v, regenerated %+v", mode, rows4[mi], want)
		}
	}

	points, _ := Fig14StallScaling(o)
	var want14 []Fig14Point
	for _, s := range workload.MemoryIntensive() {
		for _, hz := range []float64{0.8e9, 1.8e9} {
			cfg := cpu.DefaultConfig()
			cfg.FreqHz = hz
			backend := memctrl.NewDRAMController(6, dram.DefaultConfig(), sim.FromNanoseconds(8))
			res := cpu.Run(cfg, 0, cpu.Fanout(s, cfg.Cores, o.SampleOps, o.Seed), backend)
			want14 = append(want14, Fig14Point{Workload: s.Name, FreqHz: hz, Stall: res.StallFraction(cfg.Cores)})
		}
	}
	if !slices.Equal(points, want14) {
		t.Errorf("fig14: %+v, regenerated %+v", points, want14)
	}

	r15, _ := Fig15ExecLatency(o)
	r16, _ := Fig16ReadLatency(o)
	r18, _ := Fig18PowerEnergy(o)
	for i, s := range suite {
		on := func(fig string, k lightpc.Kind) (lightpc.RunResult, *lightpc.Platform) {
			return runOn(k, s, o.cell(fig+"/"+s.Name))
		}
		elapsed := func(k lightpc.Kind) sim.Duration { r, _ := on("fig15", k); return r.Elapsed }
		want15 := Fig15Row{Workload: s.Name, Legacy: elapsed(lightpc.LegacyPC),
			Baseline: elapsed(lightpc.LightPCB), LightPC: elapsed(lightpc.LightPCFull)}
		if r15.Rows[i] != want15 {
			t.Errorf("fig15 %s: %+v, regenerated %+v", s.Name, r15.Rows[i], want15)
		}

		readLat := func(k lightpc.Kind) sim.Duration { _, p := on("fig16", k); return p.PSM().ReadLatency().Mean() }
		want16 := Fig16Row{Workload: s.Name, BaselineLat: readLat(lightpc.LightPCB), LightPCLat: readLat(lightpc.LightPCFull)}
		if r16.Rows[i] != want16 {
			t.Errorf("fig16 %s: %+v, regenerated %+v", s.Name, r16.Rows[i], want16)
		}

		l, _ := on("fig18", lightpc.LegacyPC)
		b, _ := on("fig18", lightpc.LightPCB)
		f, _ := on("fig18", lightpc.LightPCFull)
		want18 := Fig18Row{Workload: s.Name,
			LegacyW: l.AvgPowerW, BaselineW: b.AvgPowerW, LightW: f.AvgPowerW,
			LegacyJ: l.EnergyJ, BaselineJ: b.EnergyJ, LightJ: f.EnergyJ}
		if r18.Rows[i] != want18 {
			t.Errorf("fig18 %s: %+v, regenerated %+v", s.Name, r18.Rows[i], want18)
		}
	}
}
