package experiments

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
)

// Experiments run with QuickOptions; the full-fidelity numbers are recorded
// by the benchmark harness (bench_test.go) and EXPERIMENTS.md.

func TestTableI(t *testing.T) {
	res, tab := TableI()
	if res.Cores != 8 || res.NVDIMMs != 6 {
		t.Fatalf("TableI = %+v", res)
	}
	if !strings.Contains(tab.String(), "8 RV64 cores") {
		t.Fatal("table content missing")
	}
}

func TestTableII(t *testing.T) {
	o := QuickOptions()
	rows, tab := TableII(o)
	if !slices.Equal(rows, specs(o)) {
		t.Fatalf("Table II rows = %+v, want the quick specs", rows)
	}
	out := tab.String()
	for _, s := range rows {
		if !strings.Contains(out, s.Name) {
			t.Errorf("Table II lacks %s", s.Name)
		}
	}
}

func TestFig02Shapes(t *testing.T) {
	res, _ := Fig02LatencyVariation(QuickOptions())
	// DIMM reads are slower than bare PRAM and non-deterministic.
	if p := res.DIMMReadPenalty(); p < 2 || p > 6 {
		t.Errorf("DIMM read penalty = %.2f, paper ~2.9", p)
	}
	if res.DIMMRead.CoefficientOfVariation() < 0.05 {
		t.Error("DIMM reads should vary")
	}
	if res.PRAMRead.CoefficientOfVariation() > 0.01 {
		t.Error("bare PRAM reads should be deterministic")
	}
	// DIMM writes beat bare PRAM by 2.3-6.1x.
	if g := res.DIMMWriteGain(); g < 2.3 || g > 8 {
		t.Errorf("DIMM write gain = %.2f, paper 2.3-6.1", g)
	}
	// Bare PRAM reads close to DRAM reads (Table I: 1.1x).
	ratio := float64(res.PRAMRead.Mean()) / float64(res.DRAMRead.Mean())
	if ratio < 1.0 || ratio > 1.4 {
		t.Errorf("PRAM/DRAM read = %.2f, paper ~1.1", ratio)
	}
}

func TestFig04Ladder(t *testing.T) {
	rows, _ := Fig04PersistControl(QuickOptions())
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byMode := map[PersistMode]Fig04Row{}
	for _, r := range rows {
		byMode[r.Mode] = r
	}
	d := float64(byMode[ModeDRAMOnly].MeanElapsed)
	if m := float64(byMode[ModeMem].MeanElapsed); m/d > 1.5 {
		t.Errorf("mem-mode %.2fx DRAM-only, want close", m/d)
	}
	if a := float64(byMode[ModeApp].MeanElapsed); a <= float64(byMode[ModeMem].MeanElapsed) {
		t.Error("app-mode should exceed mem-mode")
	}
	if ob := float64(byMode[ModeObject].MeanElapsed); ob <= float64(byMode[ModeApp].MeanElapsed) {
		t.Error("object-mode should exceed app-mode")
	}
	tr := float64(byMode[ModeTrans].MeanElapsed) / d
	if tr < 5 || tr > 14 {
		t.Errorf("trans-mode = %.1fx DRAM-only, paper ~8.7x", tr)
	}
}

func TestFig08(t *testing.T) {
	rows, _ := Fig08HoldUp(QuickOptions())
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.HoldUp <= 16*sim.Millisecond {
			t.Errorf("%s %s hold-up %v under spec", r.PSU, r.Load, r.HoldUp)
		}
	}
	sng, _ := Fig08SnG(QuickOptions())
	for _, r := range sng {
		if !r.Report.Completed {
			t.Fatalf("%s Stop incomplete", r.Load)
		}
		if r.Report.Total > 16*sim.Millisecond {
			t.Errorf("%s Stop %v exceeds the ATX spec", r.Load, r.Report.Total)
		}
	}
	if sng[0].Report.Total <= sng[1].Report.Total {
		t.Error("busy Stop should exceed idle Stop")
	}
}

func TestFig14Monotonic(t *testing.T) {
	points, _ := Fig14StallScaling(QuickOptions())
	byWl := map[string][]Fig14Point{}
	for _, p := range points {
		byWl[p.Workload] = append(byWl[p.Workload], p)
	}
	for wl, ps := range byWl {
		if ps[len(ps)-1].Stall <= ps[0].Stall {
			t.Errorf("%s: stall share did not grow with frequency", wl)
		}
	}
}

func TestFig15Headlines(t *testing.T) {
	res, _ := Fig15ExecLatency(QuickOptions())
	if m := res.MeanFullOverLegacy(); m < 1.0 || m > 1.3 {
		t.Errorf("LightPC/Legacy = %.2f, paper ~1.12", m)
	}
	if m := res.MeanBaselineOverFull(); m < 1.5 || m > 5 {
		t.Errorf("B/LightPC = %.2f, paper ~2.8", m)
	}
}

func TestFig16Penalty(t *testing.T) {
	res, _ := Fig16ReadLatency(QuickOptions())
	if m := res.MeanPenalty(); m < 3 || m > 16 {
		t.Errorf("read penalty = %.1f, paper 7-14.8 (avg ~9)", m)
	}
	for _, r := range res.Rows {
		if r.Penalty() < 1.5 {
			t.Errorf("%s penalty %.1f too small", r.Workload, r.Penalty())
		}
	}
}

func TestFig17Band(t *testing.T) {
	res, _ := Fig17Stream(QuickOptions())
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if m := res.MeanNormalized(); m < 0.6 || m > 0.95 {
		t.Errorf("STREAM normalized = %.2f, paper ~0.78", m)
	}
}

func TestFig18Headlines(t *testing.T) {
	res, _ := Fig18PowerEnergy(QuickOptions())
	if r := res.MeanPowerRatio(); r < 0.22 || r > 0.35 {
		t.Errorf("power ratio = %.2f, paper ~0.28", r)
	}
	if s := res.MeanEnergySaving(); s < 0.55 || s > 0.8 {
		t.Errorf("energy saving = %.2f, paper ~0.69", s)
	}
	if bs := res.BaselineEnergySaving(); bs >= res.MeanEnergySaving() {
		t.Error("LightPC-B should save less energy than LightPC")
	}
}

func TestFig19Ratios(t *testing.T) {
	res, _ := Fig19Persistence(QuickOptions())
	check := func(name string, lo, hi float64) {
		r := res.MeanRatio[name]
		if r < lo || r > hi {
			t.Errorf("%s/LightPC = %.2f, want [%.1f, %.1f]", name, r, lo, hi)
		}
	}
	check("SysPC", 1.2, 3.0)
	check("A-CheckPC", 5, 16)
	check("S-CheckPC", 1.6, 3.6)
	if res.MeanRatio["LightPC"] != 1 {
		t.Error("LightPC self-ratio must be 1")
	}
}

func TestFig20Windows(t *testing.T) {
	rows, _ := Fig20Flush(QuickOptions())
	byName := map[string]Fig20Row{}
	for _, r := range rows {
		byName[r.Mechanism] = r
	}
	if v := byName["SysPC"].VsATX; v < 80 || v > 300 {
		t.Errorf("SysPC vs ATX = %.0f, paper ~172", v)
	}
	if v := byName["S-CheckPC"].VsATX; v < 1.5 || v > 8 {
		t.Errorf("S-CheckPC vs ATX = %.1f, paper ~3.5", v)
	}
	if v := byName["LightPC"].VsATX; v >= 1 {
		t.Errorf("LightPC Stop must fit the ATX window, got %.2fx", v)
	}
}

func TestFig21Bands(t *testing.T) {
	rows, _ := Fig21Timeline(QuickOptions())
	byName := map[string]Fig21Row{}
	for _, r := range rows {
		byName[r.Mechanism] = r
	}
	l := byName["LightPC"]
	// Paper: Stop 19 mc, Go 12.8 mc at 1.6 GHz; 53/52 mJ at 4.5/4.4 W.
	if l.DownCycles < 5e6 || l.DownCycles > 40e6 {
		t.Errorf("LightPC down cycles = %d, paper ~19mc", l.DownCycles)
	}
	if l.DownJ > 0.2 || l.UpJ > 0.2 {
		t.Errorf("LightPC energies = %.3f/%.3f J, paper ~0.05", l.DownJ, l.UpJ)
	}
	s := byName["SysPC"]
	if s.DownCycles < 1e9 {
		t.Errorf("SysPC down cycles = %d, paper ~7bc", s.DownCycles)
	}
	if !byName["A-CheckPC"].ColdReboot || !byName["S-CheckPC"].ColdReboot {
		t.Error("checkpointers must cold-reboot")
	}
}

func TestFig22Claims(t *testing.T) {
	points, _ := Fig22Scalability(QuickOptions())
	var atx32, server64 *Fig22Point
	for i := range points {
		p := &points[i]
		if p.Cores == 32 && p.CacheBytes == 32*16*1024 {
			atx32 = p
		}
		if p.Cores == 64 && p.CacheBytes >= 40<<20 {
			server64 = p
		}
	}
	if atx32 == nil || server64 == nil {
		t.Fatal("sweep missing the paper's claim points")
	}
	// Paper: up to 32 cores with 16 KB caches meet the 16 ms spec.
	if atx32.Total > 18*sim.Millisecond {
		t.Errorf("32-core/16KB Stop = %v, paper fits ~16 ms", atx32.Total)
	}
	// Paper: 64 cores with 40 MB cache fit the 55 ms server window.
	if !server64.FitsServer {
		t.Errorf("64-core/40MB Stop = %v exceeds the server window", server64.Total)
	}
}

func TestAblationsPayOff(t *testing.T) {
	results, tables := Ablations(QuickOptions())
	if len(results) != 5 || len(tables) != 5 {
		t.Fatalf("ablations = %d/%d", len(results), len(tables))
	}
	for _, r := range results {
		if r.Ratio() <= 1.05 {
			t.Errorf("%s: ablated/full = %.2f — design choice shows no benefit", r.Name, r.Ratio())
		}
	}
}

func TestAllRegistryRuns(t *testing.T) {
	o := QuickOptions()
	seen := map[string]bool{}
	for _, n := range All() {
		if seen[n.ID] {
			t.Fatalf("duplicate experiment id %s", n.ID)
		}
		seen[n.ID] = true
		tabs := n.Run(o)
		if len(tabs) == 0 {
			t.Errorf("%s produced no tables", n.ID)
		}
		for _, tb := range tabs {
			if tb.String() == "" {
				t.Errorf("%s rendered empty", n.ID)
			}
		}
	}
	for _, want := range []string{"tableI", "tableII", "fig2", "fig4", "fig8a",
		"fig8b", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20",
		"fig21", "fig22", "ablations"} {
		if !seen[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
	if _, ok := ByID("fig15"); !ok {
		t.Error("ByID lookup failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID resolved unknown id")
	}
}
