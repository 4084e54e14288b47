package lightpc_test

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation, plus one per design-choice ablation. Each bench
// executes its experiment end-to-end and reports the headline numbers the
// paper plots as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates every row/series (EXPERIMENTS.md records paper-vs-measured).
// The benches use the trimmed quick sweeps; `cmd/lightpc-bench` runs the
// full-fidelity versions.

import (
	"runtime"
	"testing"

	"repro/internal/experiments"
)

// opts runs the benches through the parallel runner at GOMAXPROCS — the
// same path cmd/lightpc-bench takes; output is identical at any -j.
func opts() experiments.Options {
	o := experiments.QuickOptions()
	o.Jobs = runtime.GOMAXPROCS(0)
	return o
}

// BenchmarkAllQuickSerial and BenchmarkAllQuickParallel run the entire
// quick experiment suite at -j 1 and -j GOMAXPROCS; the ratio of their
// ns/op is the runner's wall-clock speedup (recorded by `make bench-json`
// into BENCH_SEED.json).
func BenchmarkAllQuickSerial(b *testing.B) {
	o := experiments.QuickOptions()
	o.Jobs = 1
	for i := 0; i < b.N; i++ {
		if experiments.Render(experiments.RunAll(o)) == "" {
			b.Fatal("empty output")
		}
	}
}

// requireRealParallelism skips a parallelism benchmark loudly when the
// process has a single CPU: at GOMAXPROCS=1 the "parallel" run is the
// serial run with extra bookkeeping, and recording its ns/op as a speedup
// measurement is worse than recording nothing (BENCH_SEED.json once
// carried a gomaxprocs:1 "speedup" of 1.05x this way).
func requireRealParallelism(b *testing.B) {
	if p := runtime.GOMAXPROCS(0); p < 2 {
		b.Skipf("GOMAXPROCS=%d: parallel benchmark would silently measure the serial path; "+
			"re-run on a multi-core host (or raise GOMAXPROCS) for a meaningful number", p)
	}
}

func BenchmarkAllQuickParallel(b *testing.B) {
	requireRealParallelism(b)
	o := experiments.QuickOptions()
	o.Jobs = runtime.GOMAXPROCS(0)
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
	for i := 0; i < b.N; i++ {
		if experiments.Render(experiments.RunAll(o)) == "" {
			b.Fatal("empty output")
		}
	}
}

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _ := experiments.TableI()
		if res.Cores != 8 {
			b.Fatal("bad config")
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.TableII(opts())
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFig02LatencyVariation(b *testing.B) {
	var penalty, gain float64
	for i := 0; i < b.N; i++ {
		res, _ := experiments.Fig02LatencyVariation(opts())
		penalty = res.DIMMReadPenalty()
		gain = res.DIMMWriteGain()
	}
	b.ReportMetric(penalty, "dimm-read-penalty-x") // paper ~2.9
	b.ReportMetric(gain, "dimm-write-gain-x")      // paper 2.3-6.1
}

func BenchmarkFig04PersistControl(b *testing.B) {
	var trans float64
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Fig04PersistControl(opts())
		trans = float64(rows[4].MeanElapsed) / float64(rows[0].MeanElapsed)
	}
	b.ReportMetric(trans, "trans-vs-dram-x") // paper ~8.7
}

func BenchmarkFig08HoldUp(b *testing.B) {
	var atxMs float64
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Fig08HoldUp(opts())
		atxMs = rows[0].HoldUp.Milliseconds()
	}
	b.ReportMetric(atxMs, "atx-busy-ms") // paper ~22
}

func BenchmarkFig08SnG(b *testing.B) {
	var busyMs float64
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Fig08SnG(opts())
		busyMs = rows[0].Report.Total.Milliseconds()
	}
	b.ReportMetric(busyMs, "busy-stop-ms") // paper 8.6-10.5
}

func BenchmarkFig14StallScaling(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		points, _ := experiments.Fig14StallScaling(opts())
		last = points[len(points)-1].Stall
	}
	b.ReportMetric(100*last, "stall-pct-at-1.8GHz")
}

func BenchmarkFig15ExecLatency(b *testing.B) {
	var fullLegacy, bFull float64
	for i := 0; i < b.N; i++ {
		res, _ := experiments.Fig15ExecLatency(opts())
		fullLegacy = res.MeanFullOverLegacy()
		bFull = res.MeanBaselineOverFull()
	}
	b.ReportMetric(fullLegacy, "lightpc-vs-legacy-x") // paper ~1.12
	b.ReportMetric(bFull, "baseline-vs-lightpc-x")    // paper ~2.8
}

func BenchmarkFig16ReadLatency(b *testing.B) {
	var penalty float64
	for i := 0; i < b.N; i++ {
		res, _ := experiments.Fig16ReadLatency(opts())
		penalty = res.MeanPenalty()
	}
	b.ReportMetric(penalty, "read-penalty-x") // paper ~9 (7-14.8)
}

func BenchmarkFig17Stream(b *testing.B) {
	var norm float64
	for i := 0; i < b.N; i++ {
		res, _ := experiments.Fig17Stream(opts())
		norm = res.MeanNormalized()
	}
	b.ReportMetric(100*norm, "bandwidth-pct-of-legacy") // paper ~78
}

func BenchmarkFig18PowerEnergy(b *testing.B) {
	var powerRatio, saving float64
	for i := 0; i < b.N; i++ {
		res, _ := experiments.Fig18PowerEnergy(opts())
		powerRatio = res.MeanPowerRatio()
		saving = res.MeanEnergySaving()
	}
	b.ReportMetric(100*powerRatio, "power-pct-of-legacy") // paper ~28
	b.ReportMetric(100*saving, "energy-saving-pct")       // paper ~69
}

func BenchmarkFig19Persistence(b *testing.B) {
	var sys, ack, sck float64
	for i := 0; i < b.N; i++ {
		res, _ := experiments.Fig19Persistence(opts())
		sys = res.MeanRatio["SysPC"]
		ack = res.MeanRatio["A-CheckPC"]
		sck = res.MeanRatio["S-CheckPC"]
	}
	b.ReportMetric(sys, "syspc-x")     // paper ~1.6
	b.ReportMetric(ack, "a-checkpc-x") // paper ~8.8
	b.ReportMetric(sck, "s-checkpc-x") // paper ~2.4
}

// BenchmarkFig20Flush, BenchmarkFig21Timeline and BenchmarkFig21aSeries
// reuse the profiles Fig 19 last ran at the same options. When they follow
// BenchmarkFig19Persistence, as under `go test -bench=.` and
// `make bench-json`, they time only their tables over its profiles; run
// alone, each first runs the profiles itself.
func BenchmarkFig20Flush(b *testing.B) {
	var sysVsATX float64
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Fig20Flush(opts())
		for _, r := range rows {
			if r.Mechanism == "SysPC" {
				sysVsATX = r.VsATX
			}
		}
	}
	b.ReportMetric(sysVsATX, "syspc-flush-vs-atx-x") // paper ~172
}

func BenchmarkFig21Timeline(b *testing.B) {
	var downMc float64
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Fig21Timeline(opts())
		for _, r := range rows {
			if r.Mechanism == "LightPC" {
				downMc = float64(r.DownCycles) / 1e6
			}
		}
	}
	b.ReportMetric(downMc, "lightpc-stop-megacycles") // paper ~19
}

func BenchmarkFig22Scalability(b *testing.B) {
	var worstMs float64
	for i := 0; i < b.N; i++ {
		points, _ := experiments.Fig22Scalability(opts())
		for _, p := range points {
			if p.Cores == 64 && p.CacheBytes >= 40<<20 {
				worstMs = p.Total.Milliseconds()
			}
		}
	}
	b.ReportMetric(worstMs, "64core-40MB-stop-ms") // paper: fits 55 ms
}

func BenchmarkAblationXCC(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, _ := experiments.AblationXCC(opts())
		ratio = res.Ratio()
	}
	b.ReportMetric(ratio, "ablated-vs-full-x")
}

func BenchmarkAblationChannel(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, _ := experiments.AblationChannel(opts())
		ratio = res.Ratio()
	}
	b.ReportMetric(ratio, "ablated-vs-full-x")
}

func BenchmarkAblationRowBuffer(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, _ := experiments.AblationRowBuffer(opts())
		ratio = res.Ratio()
	}
	b.ReportMetric(ratio, "ablated-vs-full-x")
}

func BenchmarkAblationBalance(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, _ := experiments.AblationBalance(opts())
		ratio = res.Ratio()
	}
	b.ReportMetric(ratio, "ablated-vs-full-x")
}

func BenchmarkAblationWearLevel(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, _ := experiments.AblationWearLevel(opts())
		ratio = res.Ratio()
	}
	b.ReportMetric(ratio, "ablated-vs-full-x")
}

func BenchmarkRelatedWork(b *testing.B) {
	var wspVuln float64
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.RelatedWork(opts())
		for _, r := range rows {
			if r.Mechanism == "WSP" {
				wspVuln = r.Vulnerable.Seconds()
			}
		}
	}
	b.ReportMetric(wspVuln, "wsp-vulnerable-sec") // SnG: zero
}

func BenchmarkHybridECC(b *testing.B) {
	var fixes float64
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.HybridECC(opts())
		fixes = float64(rows[len(rows)-1].HybridSymbolFix)
	}
	b.ReportMetric(fixes, "symbol-fixes-at-worst-rate")
}

func BenchmarkSCheckPCPeriod(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.SCheckPCPeriod(opts())
		worst = rows[0].Overhead
	}
	b.ReportMetric(worst, "shortest-period-overhead-x")
}

func BenchmarkSeedRotation(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, _ := experiments.SeedRotation(opts())
		ratio = float64(res.FixedSeedTargetWear) / float64(res.RotatedTargetWear+1)
	}
	b.ReportMetric(ratio, "adversary-blunted-x")
}

// BenchmarkFig21aSeries times its table over Fig 19's profiles when it
// follows BenchmarkFig19Persistence (see BenchmarkFig20Flush).
func BenchmarkFig21aSeries(b *testing.B) {
	var segments float64
	for i := 0; i < b.N; i++ {
		segs, _ := experiments.Fig21Series(opts())
		segments = float64(len(segs))
	}
	b.ReportMetric(segments, "timeline-segments")
}

func BenchmarkInterconnect(b *testing.B) {
	var busPenalty float64
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Interconnect(opts())
		var bus, xbar float64
		for _, r := range rows {
			if r.Cores == 8 {
				if r.Topology.String() == "shared-bus" {
					bus = float64(r.MeanLat)
				} else {
					xbar = float64(r.MeanLat)
				}
			}
		}
		busPenalty = bus / xbar
	}
	b.ReportMetric(busPenalty, "bus-vs-crossbar-x")
}

func BenchmarkEndurance(b *testing.B) {
	var years float64
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Endurance(opts())
		years = rows[2].YearsLeveled // 1e9 endurance
	}
	b.ReportMetric(years, "leveled-years-at-1e9")
}
