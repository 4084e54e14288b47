package main

import (
	"math"

	"repro/internal/experiments"
	"repro/internal/report"
)

// headline is one number the paper states and the simulator reproduces.
// The paper values are the ones EXPERIMENTS.md and the root bench_test.go
// cite.
type headline struct {
	Name  string // accuracy.<Name>_err_pct
	Exp   string // the experiments.All() id that produces it
	Paper float64
}

var headlines = []headline{
	{"fig4_trans_x", "fig4", 8.7},
	{"fig8b_busy_stop_ms", "fig8b", 10.5},
	{"fig15_lightpc_vs_legacy_x", "fig15", 1.12},
	{"fig15_baseline_vs_lightpc_x", "fig15", 2.8},
	{"fig16_read_penalty_x", "fig16", 9},
	{"fig17_bandwidth_pct", "fig17", 78},
	{"fig18_power_pct", "fig18", 28},
	{"fig18_energy_saving_pct", "fig18", 69},
	{"fig19_syspc_x", "fig19", 1.6},
	{"fig19_a_checkpc_x", "fig19", 8.8},
	{"fig19_s_checkpc_x", "fig19", 2.4},
	{"fig20_syspc_vs_atx_x", "fig20", 172},
	{"fig21_stop_mcycles", "fig21", 19},
}

// headlineRun runs one experiment and returns both its tables (byte-for-byte
// what experiments.All() renders for it) and the headline values it yields.
type headlineRun func(experiments.Options) ([]*report.Table, map[string]float64)

// headlineRuns replaces the experiments.All() entries that carry headlines
// with calls to the same harness that also keep its structured result.
var headlineRuns = map[string]headlineRun{
	"fig4": func(o experiments.Options) ([]*report.Table, map[string]float64) {
		rows, t := experiments.Fig04PersistControl(o)
		return []*report.Table{t}, map[string]float64{
			"fig4_trans_x": float64(rows[4].MeanElapsed) / float64(rows[0].MeanElapsed),
		}
	},
	"fig8b": func(o experiments.Options) ([]*report.Table, map[string]float64) {
		rows, t := experiments.Fig08SnG(o)
		return []*report.Table{t}, map[string]float64{
			"fig8b_busy_stop_ms": rows[0].Report.Total.Milliseconds(),
		}
	},
	"fig15": func(o experiments.Options) ([]*report.Table, map[string]float64) {
		res, t := experiments.Fig15ExecLatency(o)
		return []*report.Table{t}, map[string]float64{
			"fig15_lightpc_vs_legacy_x":   res.MeanFullOverLegacy(),
			"fig15_baseline_vs_lightpc_x": res.MeanBaselineOverFull(),
		}
	},
	"fig16": func(o experiments.Options) ([]*report.Table, map[string]float64) {
		res, t := experiments.Fig16ReadLatency(o)
		return []*report.Table{t}, map[string]float64{"fig16_read_penalty_x": res.MeanPenalty()}
	},
	"fig17": func(o experiments.Options) ([]*report.Table, map[string]float64) {
		res, t := experiments.Fig17Stream(o)
		return []*report.Table{t}, map[string]float64{"fig17_bandwidth_pct": 100 * res.MeanNormalized()}
	},
	"fig18": func(o experiments.Options) ([]*report.Table, map[string]float64) {
		res, t := experiments.Fig18PowerEnergy(o)
		return []*report.Table{t}, map[string]float64{
			"fig18_power_pct":         100 * res.MeanPowerRatio(),
			"fig18_energy_saving_pct": 100 * res.MeanEnergySaving(),
		}
	},
	"fig19": func(o experiments.Options) ([]*report.Table, map[string]float64) {
		res, t := experiments.Fig19Persistence(o)
		return []*report.Table{t}, map[string]float64{
			"fig19_syspc_x":     res.MeanRatio["SysPC"],
			"fig19_a_checkpc_x": res.MeanRatio["A-CheckPC"],
			"fig19_s_checkpc_x": res.MeanRatio["S-CheckPC"],
		}
	},
	"fig20": func(o experiments.Options) ([]*report.Table, map[string]float64) {
		rows, t := experiments.Fig20Flush(o)
		v := map[string]float64{}
		for _, r := range rows {
			if r.Mechanism == "SysPC" {
				v["fig20_syspc_vs_atx_x"] = r.VsATX
			}
		}
		return []*report.Table{t}, v
	},
	"fig21": func(o experiments.Options) ([]*report.Table, map[string]float64) {
		rows, t := experiments.Fig21Timeline(o)
		v := map[string]float64{}
		for _, r := range rows {
			if r.Mechanism == "LightPC" {
				v["fig21_stop_mcycles"] = float64(r.DownCycles) / 1e6
			}
		}
		return []*report.Table{t}, v
	},
}

// accuracy turns measured headline values into per-headline errors
// |measured/paper − 1| in percent, plus their mean (paper_error_pct). A
// headline the run did not produce counts as 100% off.
func accuracy(measured map[string]float64) (perHeadline map[string]float64, meanPct float64) {
	perHeadline = make(map[string]float64, len(headlines))
	for _, h := range headlines {
		err := 100.0
		if v, ok := measured[h.Name]; ok {
			err = 100 * math.Abs(v/h.Paper-1)
		}
		perHeadline[h.Name] = err
		meanPct += err
	}
	return perHeadline, meanPct / float64(len(headlines))
}
