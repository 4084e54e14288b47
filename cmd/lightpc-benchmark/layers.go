package main

import (
	"fmt"
	"time"

	lightpc "repro"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/crashpoint"
	"repro/internal/sim"
	"repro/internal/snapshot"
	simtrace "repro/internal/trace"
	"repro/internal/workload"
)

// backendSampleEvery is the backend-call sampling stride of a traced run. A
// clock pair costs about 90 ns on a 2-CPU cloud host, more than a typical
// backend call; timing one call in 64, chosen by call index and so
// deterministically, keeps the traced rounds within a few percent of the
// untraced ones (trace.overhead_frac). Sampled time, less the clock pair's
// own cost, is scaled by the exact call count.
const backendSampleEvery = 64

// sampledBackend sits between cpu.Run and the platform's memory backend,
// counting every call and timing every backendSampleEvery-th.
type sampledBackend struct {
	inner cache.Backend
	// clockNs is what one sample's clock pair adds by itself; it is taken
	// off each sampled call.
	clockNs float64

	reads, writes             uint64
	readSamples, writeSamples uint64
	readNs, writeNs           int64
}

func (s *sampledBackend) Read(now sim.Time, addr uint64) sim.Time {
	s.reads++
	if s.reads%backendSampleEvery != 0 {
		return s.inner.Read(now, addr)
	}
	t := time.Now()
	done := s.inner.Read(now, addr)
	s.readNs += int64(time.Since(t))
	s.readSamples++
	return done
}

func (s *sampledBackend) Write(now sim.Time, addr uint64) sim.Time {
	s.writes++
	if s.writes%backendSampleEvery != 0 {
		return s.inner.Write(now, addr)
	}
	t := time.Now()
	ack := s.inner.Write(now, addr)
	s.writeNs += int64(time.Since(t))
	s.writeSamples++
	return ack
}

// readNsPerCall and writeNsPerCall are the sampled mean host cost of one
// backend call.
func (s *sampledBackend) readNsPerCall() float64 {
	if s.readSamples == 0 {
		return 0
	}
	return float64(s.readNs)/float64(s.readSamples) - s.clockNs
}

func (s *sampledBackend) writeNsPerCall() float64 {
	if s.writeSamples == 0 {
		return 0
	}
	return float64(s.writeNs)/float64(s.writeSamples) - s.clockNs
}

// clockPairNs is the median interval a time.Now/time.Since pair reports
// with nothing between them.
func clockPairNs() float64 {
	ds := make([]float64, 1001)
	for i := range ds {
		t := time.Now()
		ds[i] = float64(time.Since(t))
	}
	return median(ds)
}

// batchSampleEvery is the batch sampling stride of a traced run: a clock
// pair per 64-reference batch would add 1.5 ns per reference, one in eight
// batches a fifth of a nanosecond.
const batchSampleEvery = 8

// timedGen counts every batch cpu.Run pulls from a generator and times
// every batchSampleEvery-th, by call index.
type timedGen struct {
	workload.Generator
	acc *batchTimes
}

// batchTimes is the batch tally shared by one op's generators.
type batchTimes struct {
	calls, samples uint64
	ns             int64
}

func (g *timedGen) NextBatch(buf []workload.Ref) int {
	a := g.acc
	a.calls++
	if a.calls%batchSampleEvery != 0 {
		return workload.FillBatch(g.Generator, buf)
	}
	t := time.Now()
	n := workload.FillBatch(g.Generator, buf)
	a.ns += int64(time.Since(t))
	a.samples++
	return n
}

// Stats forwards the traffic characterization cpu.Run merges into its
// result, so a timed run's Result equals an untimed one's.
func (g *timedGen) Stats() simtrace.Stats {
	if s, ok := g.Generator.(interface{ Stats() simtrace.Stats }); ok {
		return s.Stats()
	}
	return simtrace.Stats{}
}

// total is the estimated time of every batch: the sampled mean, less the
// clock pair's own cost, times the exact call count.
func (a *batchTimes) total(clockNs float64) float64 {
	if a.samples == 0 {
		return 0
	}
	return (float64(a.ns)/float64(a.samples) - clockNs) * float64(a.calls)
}

// runLayers accumulates the traced ops of oc-pmem and legacy-dram.
type runLayers struct {
	ops     int
	refs    uint64
	newNs   float64
	runNs   float64
	batches batchTimes
	be      sampledBackend
}

// run is a traced Platform.Run: the same lightpc.New, cpu.Fanout and
// cpu.Run calls Platform.Run makes (with energy off it makes no others),
// with the generators and the backend wrapped.
func (l *runLayers) run(b *bench, cfg lightpc.Config, spec workload.Spec) (res cpu.Result, p *lightpc.Platform) {
	if l.ops == 0 {
		l.be.clockNs = clockPairNs()
	}
	b.op(true, func() {
		t0 := time.Now()
		p = lightpc.New(cfg)
		t1 := time.Now()
		gens := cpu.Fanout(spec, cfg.CPU.Cores, cfg.SampleOps, cfg.Seed)
		for i, g := range gens {
			gens[i] = &timedGen{Generator: g, acc: &l.batches}
		}
		l.be.inner = p.Backend()
		t2 := time.Now()
		res = cpu.Run(p.Config().CPU, 0, gens, &l.be)
		t3 := time.Now()
		b.span("lightpc.New", t0, t1)
		b.span("cpu.Run", t2, t3)
		l.newNs += float64(t1.Sub(t0))
		l.runNs += float64(t3.Sub(t2))
	})
	l.ops++
	l.refs += res.MemOps
	at := time.Now()
	b.counter("workload.refs", at, int64(l.refs))
	b.counter("memctrl.reads", at, int64(l.be.reads))
	b.counter("memctrl.writes", at, int64(l.be.writes))
	return res, p
}

func (l *runLayers) report(out map[string]float64) {
	if l.ops == 0 {
		return
	}
	readEst := l.be.readNsPerCall() * float64(l.be.reads)
	writeEst := l.be.writeNsPerCall() * float64(l.be.writes)
	batchEst := l.batches.total(l.be.clockNs)
	self := l.runNs - batchEst - readEst - writeEst
	refs := float64(l.refs)
	out["lightpc.new_ms"] = l.newNs / float64(l.ops) / 1e6
	out["workload.ns_per_ref"] = batchEst / refs
	out["cpu.self_ns_per_ref"] = self / refs
	out["memctrl.read_ns"] = l.be.readNsPerCall()
	out["memctrl.write_ns"] = l.be.writeNsPerCall()
}

// platformModel sums the simulated statistics of one round of platform ops
// (later rounds repeat it exactly).
type platformModel struct {
	ops, psmOps                  int
	reads, writes                uint64 // backend calls (L1 misses)
	psmReads, psmWrites          uint64
	rbHits, rbServes             uint64
	reconstructs, blocked, media uint64
	readP50, readP99             float64 // Σ per-op simulated ns
	ackP50, ackP99               float64
	pramReads, pramConflicts     uint64
	nvWrites, nvRMW              uint64
	dramAccesses, dramRowHits    uint64
	dramRefreshes                uint64
}

func (m *platformModel) add(res cpu.Result, p *lightpc.Platform) {
	m.ops++
	m.reads += res.ReadMisses
	m.writes += res.WriteMisses
	if ps := p.PSM(); ps != nil {
		m.psmOps++
		st := ps.Stats()
		m.psmReads += st.Reads
		m.psmWrites += st.Writes
		m.rbHits += st.RowBufferHits
		m.rbServes += st.RowBufferServes
		m.reconstructs += st.Reconstructs
		m.blocked += st.BlockedReads
		m.media += st.MediaWrites
		m.readP50 += ps.ReadLatency().Percentile(50).Nanoseconds()
		m.readP99 += ps.ReadLatency().Percentile(99).Nanoseconds()
		m.ackP50 += ps.WriteAckLatency().Percentile(50).Nanoseconds()
		m.ackP99 += ps.WriteAckLatency().Percentile(99).Nanoseconds()
		for _, d := range ps.DIMMs() {
			_, w, _, rmw, _ := d.Stats()
			m.nvWrites += w
			m.nvRMW += rmw
			for _, dev := range d.Devices() {
				r, _, c, _ := dev.Stats()
				m.pramReads += r
				m.pramConflicts += c
			}
		}
	}
	if d := p.DRAM(); d != nil {
		r, w, hits, refreshes := d.Stats()
		m.dramAccesses += r + w
		m.dramRowHits += hits
		m.dramRefreshes += refreshes
	}
}

func (m *platformModel) report(out map[string]float64) {
	f := func(v uint64) float64 { return float64(v) }
	ops := float64(m.ops)
	out["memctrl.reads_per_op"] = ratio(f(m.reads), ops)
	out["memctrl.writes_per_op"] = ratio(f(m.writes), ops)
	out["psm.row_buffer_hit_frac"] = ratio(f(m.rbHits), f(m.psmWrites))
	out["psm.row_buffer_serve_frac"] = ratio(f(m.rbServes), f(m.psmReads))
	out["psm.reconstruct_frac"] = ratio(f(m.reconstructs), f(m.psmReads))
	out["psm.blocked_read_frac"] = ratio(f(m.blocked), f(m.psmReads))
	out["psm.media_writes_per_write"] = ratio(f(m.media), f(m.psmWrites))
	psmOps := float64(m.psmOps)
	out["psm.sim_read_ns_p50"] = ratio(m.readP50, psmOps)
	out["psm.sim_read_ns_p99"] = ratio(m.readP99, psmOps)
	out["psm.sim_write_ack_ns_p50"] = ratio(m.ackP50, psmOps)
	out["psm.sim_write_ack_ns_p99"] = ratio(m.ackP99, psmOps)
	out["pram.conflicts_per_read"] = ratio(f(m.pramConflicts), f(m.pramReads))
	out["nvdimm.rmw_per_write"] = ratio(f(m.nvRMW), f(m.nvWrites))
	out["dram.row_hit_frac"] = ratio(f(m.dramRowHits), f(m.dramAccesses))
	out["dram.refreshes_per_op"] = ratio(f(m.dramRefreshes), float64(m.ops-m.psmOps))
}

// crashLayers accumulates crash-sweep host time: every cell's set-up, and
// the traced cuts.
type crashLayers struct {
	cells              int
	buildNs, offsetsNs float64
	cuts               int
	forkNs, cutNs      float64
	forkBytes          uint64
}

// setup builds one cell and derives its cut grid; it is one repetition of
// crash-sweep's set-up.
func (l *crashLayers) setup(b *bench, c crashCell, traced bool) (*crashpoint.System, []sim.Duration, error) {
	var base *crashpoint.System
	var offsets []sim.Duration
	var err error
	b.setup(func() {
		t0 := time.Now()
		base, err = crashpoint.Build(c.Scenario)
		t1 := time.Now()
		if err == nil {
			offsets = crashpoint.CellOffsets(base, c.Label, b.sc.fuzzCuts)
		}
		t2 := time.Now()
		l.cells++
		l.buildNs += float64(t1.Sub(t0))
		l.offsetsNs += float64(t2.Sub(t1))
		if traced {
			b.span("crashpoint.Build", t0, t1)
			b.span("crashpoint.CellOffsets", t1, t2)
		}
	})
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", c.Label, err)
	}
	return base, offsets, nil
}

// cut is a traced Fork().CutAt(off).
func (l *crashLayers) cut(b *bench, base *crashpoint.System, off sim.Duration) (out crashpoint.CutOutcome) {
	b.op(true, func() {
		forks := snapshot.Default()
		bytes0 := forks.Bytes()
		t0 := time.Now()
		f := base.Fork()
		t1 := time.Now()
		out = f.CutAt(off)
		t2 := time.Now()
		l.forkBytes += forks.Bytes() - bytes0
		b.span("snapshot.Fork", t0, t1)
		b.span("crashpoint.CutAt", t1, t2)
		l.forkNs += float64(t1.Sub(t0))
		l.cutNs += float64(t2.Sub(t1))
	})
	l.cuts++
	return out
}

func (l *crashLayers) report(out map[string]float64) {
	if l.cells > 0 {
		out["crashpoint.build_ms"] = l.buildNs / float64(l.cells) / 1e6
		out["crashpoint.offsets_ms"] = l.offsetsNs / float64(l.cells) / 1e6
	}
	if l.cuts > 0 {
		out["snapshot.fork_ms"] = l.forkNs / float64(l.cuts) / 1e6
		out["snapshot.fork_mb"] = float64(l.forkBytes) / float64(l.cuts) / 1e6
		out["crashpoint.cut_ms"] = l.cutNs / float64(l.cuts) / 1e6
	}
}

// crashModel sums the simulated outcomes of one pass of cuts.
type crashModel struct {
	cells, cuts          int
	completed, coldBoots int
	completedStopPs      float64
}

func (m *crashModel) add(out crashpoint.CutOutcome) {
	m.cuts++
	if out.Completed {
		m.completed++
		m.completedStopPs += float64(out.StopTotalPs)
	}
	if out.ColdBooted {
		m.coldBoots++
	}
}

func (m *crashModel) report(out map[string]float64) {
	cuts := float64(m.cuts)
	out["crashpoint.cuts_per_cell"] = ratio(cuts, float64(m.cells))
	out["sng.completed_frac"] = ratio(float64(m.completed), cuts)
	out["sng.cold_boot_frac"] = ratio(float64(m.coldBoots), cuts)
	out["sng.sim_stop_ms"] = ratio(m.completedStopPs, float64(m.completed)) / float64(sim.Millisecond)
}
