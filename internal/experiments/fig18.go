package experiments

import (
	lightpc "repro"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/workload"
)

// Fig18Row is one workload's power/energy on the three platforms.
type Fig18Row struct {
	Workload string

	LegacyW, BaselineW, LightW float64
	LegacyJ, BaselineJ, LightJ float64
}

// Fig18Result aggregates the suite.
type Fig18Result struct {
	Rows []Fig18Row
}

// MeanPowerRatio is LightPC power over LegacyPC (paper: ~0.28 — 73% lower).
func (r Fig18Result) MeanPowerRatio() float64 {
	var s float64
	for _, row := range r.Rows {
		s += row.LightW / row.LegacyW
	}
	return s / float64(len(r.Rows))
}

// MeanEnergySaving is 1 − LightPC energy / LegacyPC energy (paper: ~69%).
func (r Fig18Result) MeanEnergySaving() float64 {
	var s float64
	for _, row := range r.Rows {
		s += 1 - row.LightJ/row.LegacyJ
	}
	return s / float64(len(r.Rows))
}

// BaselineEnergySaving is the same for LightPC-B (paper: only ~8.2% — the
// longer execution eats the power win).
func (r Fig18Result) BaselineEnergySaving() float64 {
	var s float64
	for _, row := range r.Rows {
		s += 1 - row.BaselineJ/row.LegacyJ
	}
	return s / float64(len(r.Rows))
}

// Fig18PowerEnergy reproduces Figure 18: system power and energy for the
// in-memory executions on the three platforms. One runner cell per
// workload replays the workload's streams on every platform.
func Fig18PowerEnergy(o Options) (Fig18Result, *report.Table) {
	suite := specs(o)
	kinds := []lightpc.Kind{lightpc.LegacyPC, lightpc.LightPCB, lightpc.LightPCFull}
	type wj struct{ W, J float64 }
	pts := runner.Map(o.pool(), suite,
		func(_ int, s workload.Spec) string { return "fig18/" + s.Name },
		func(label string, s workload.Spec) []wj {
			return runOnKinds(kinds, s, o.cell(label), func(r lightpc.RunResult, _ *lightpc.Platform) wj {
				return wj{r.AvgPowerW, r.EnergyJ}
			})
		})

	var res Fig18Result
	for i, s := range suite {
		l, b, f := pts[i][0], pts[i][1], pts[i][2]
		res.Rows = append(res.Rows, Fig18Row{
			Workload: s.Name,
			LegacyW:  l.W, BaselineW: b.W, LightW: f.W,
			LegacyJ: l.J, BaselineJ: b.J, LightJ: f.J,
		})
	}
	t := report.New("Fig 18: power and energy",
		"workload", "Legacy W", "B W", "LightPC W", "Legacy J", "B J", "LightPC J")
	for _, r := range res.Rows {
		t.Add(r.Workload, report.F(r.LegacyW, 1), report.F(r.BaselineW, 1),
			report.F(r.LightW, 1), report.F(r.LegacyJ, 4),
			report.F(r.BaselineJ, 4), report.F(r.LightJ, 4))
	}
	t.Note("power ratio LightPC/Legacy = %s (paper ~28%%)", report.Pct(res.MeanPowerRatio()))
	t.Note("energy saving LightPC = %s (paper ~69%%), LightPC-B = %s (paper ~8.2%%)",
		report.Pct(res.MeanEnergySaving()), report.Pct(res.BaselineEnergySaving()))
	return res, t
}
