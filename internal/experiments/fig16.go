package experiments

import (
	lightpc "repro"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Fig16Row is one workload's memory-level read latency comparison.
type Fig16Row struct {
	Workload    string
	BaselineLat sim.Duration // mean PSM read latency on LightPC-B
	LightPCLat  sim.Duration
}

// Penalty is LightPC-B read latency over LightPC (paper: 7–14.8×, avg ~9×).
func (r Fig16Row) Penalty() float64 {
	return float64(r.BaselineLat) / float64(r.LightPCLat)
}

// Fig16Result aggregates the suite.
type Fig16Result struct {
	Rows []Fig16Row
}

// MeanPenalty averages the read-latency penalty.
func (r Fig16Result) MeanPenalty() float64 {
	var s float64
	for _, row := range r.Rows {
		s += row.Penalty()
	}
	return s / float64(len(r.Rows))
}

// Fig16ReadLatency reproduces Figure 16: LightPC-B's memory-level read
// latency normalized to LightPC, per workload — the head-of-line-blocking
// cost the PSM's non-blocking services remove. One runner cell per
// workload replays the workload's streams on both platforms.
func Fig16ReadLatency(o Options) (Fig16Result, *report.Table) {
	suite := specs(o)
	kinds := []lightpc.Kind{lightpc.LightPCB, lightpc.LightPCFull}
	lats := runner.Map(o.pool(), suite,
		func(_ int, s workload.Spec) string { return "fig16/" + s.Name },
		func(label string, s workload.Spec) []sim.Duration {
			return runOnKinds(kinds, s, o.cell(label), func(_ lightpc.RunResult, p *lightpc.Platform) sim.Duration {
				return p.PSM().ReadLatency().Mean()
			})
		})

	var res Fig16Result
	for i, s := range suite {
		res.Rows = append(res.Rows, Fig16Row{
			Workload:    s.Name,
			BaselineLat: lats[i][0],
			LightPCLat:  lats[i][1],
		})
	}
	t := report.New("Fig 16: LightPC-B read latency normalized to LightPC",
		"workload", "LightPC-B", "LightPC", "penalty")
	for _, r := range res.Rows {
		t.Add(r.Workload, report.Dur(r.BaselineLat), report.Dur(r.LightPCLat),
			report.X(r.Penalty()))
	}
	t.Add("AVG", "", "", report.X(res.MeanPenalty()))
	t.Note("paper: 7x to 14.8x (wrf highest via forecast-history read-after-writes, mcf lowest), ~9x on average")
	return res, t
}
