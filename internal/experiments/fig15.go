package experiments

import (
	lightpc "repro"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Fig15Row is one workload's execution time on the three platforms.
type Fig15Row struct {
	Workload string
	Legacy   sim.Duration
	Baseline sim.Duration // LightPC-B
	LightPC  sim.Duration
}

// FullOverLegacy is LightPC / LegacyPC (paper: ~1.12 on average).
func (r Fig15Row) FullOverLegacy() float64 {
	return float64(r.LightPC) / float64(r.Legacy)
}

// BaselineOverFull is LightPC-B / LightPC (paper: ~2.8× on average).
func (r Fig15Row) BaselineOverFull() float64 {
	return float64(r.Baseline) / float64(r.LightPC)
}

// Fig15Result aggregates the suite.
type Fig15Result struct {
	Rows []Fig15Row
}

// MeanFullOverLegacy averages LightPC/LegacyPC across workloads.
func (r Fig15Result) MeanFullOverLegacy() float64 {
	var s float64
	for _, row := range r.Rows {
		s += row.FullOverLegacy()
	}
	return s / float64(len(r.Rows))
}

// MeanBaselineOverFull averages LightPC-B/LightPC across workloads.
func (r Fig15Result) MeanBaselineOverFull() float64 {
	var s float64
	for _, row := range r.Rows {
		s += row.BaselineOverFull()
	}
	return s / float64(len(r.Rows))
}

// Fig15ExecLatency reproduces Figure 15: in-memory execution time of every
// workload on LegacyPC, LightPC-B, and LightPC. One runner cell per
// workload: it generates the workload's streams once, under the
// workload's sub-seed, and replays them on the three platforms, so the
// ratios compare identical reference streams.
func Fig15ExecLatency(o Options) (Fig15Result, *report.Table) {
	suite := specs(o)
	kinds := []lightpc.Kind{lightpc.LegacyPC, lightpc.LightPCB, lightpc.LightPCFull}
	durs := runner.Map(o.pool(), suite,
		func(_ int, s workload.Spec) string { return "fig15/" + s.Name },
		func(label string, s workload.Spec) []sim.Duration {
			return runOnKinds(kinds, s, o.cell(label), func(r lightpc.RunResult, _ *lightpc.Platform) sim.Duration {
				return r.Elapsed
			})
		})

	var res Fig15Result
	for i, s := range suite {
		res.Rows = append(res.Rows, Fig15Row{
			Workload: s.Name,
			Legacy:   durs[i][0],
			Baseline: durs[i][1],
			LightPC:  durs[i][2],
		})
	}
	t := report.New("Fig 15: in-memory execution latency",
		"workload", "LegacyPC", "LightPC-B", "LightPC", "LightPC/Legacy", "B/LightPC")
	for _, r := range res.Rows {
		t.Add(r.Workload, report.Dur(r.Legacy), report.Dur(r.Baseline),
			report.Dur(r.LightPC), report.X(r.FullOverLegacy()),
			report.X(r.BaselineOverFull()))
	}
	t.Add("AVG", "", "", "", report.X(res.MeanFullOverLegacy()),
		report.X(res.MeanBaselineOverFull()))
	t.Note("paper: LightPC ~12%% slower than LegacyPC; LightPC 2.8x faster than LightPC-B (4.1x for SNAP/astar)")
	return res, t
}
