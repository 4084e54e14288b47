package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// bench is one run of one workload. It owns the round loop, the op and
// set-up samples, the correctness tally and, in a traced run, the span
// recorder. Everything runs on the calling goroutine: one closed-loop
// client with no think time.
type bench struct {
	wl     string
	seed   uint64
	sc     scale
	budget time.Duration
	// traced alternates untraced and traced rounds and collects the
	// per-layer metrics; the end-to-end samples come from untraced rounds
	// only.
	traced bool

	epoch time.Time
	tr    *obs.Tracer
	lanes map[string]obs.Lane
	opSeq int64

	round      int       // the round the loop is in
	opMs       []float64 // untraced op wall times
	opNorm     []float64 // the same, host-normalised (hostTick)
	opRound    []int     // the round of each opMs sample
	opNs       float64   // their sum
	allocBytes float64   // heap bytes allocated inside untraced ops
	tracedOps  int
	tracedNs   float64
	setupNorm  []float64 // host-normalised set-up wall times
	setupRound []int     // the round of each setupNorm sample
	// roundIsOp makes the end-to-end metrics treat a whole round as one op
	// (figures: a pass over every experiment).
	roundIsOp bool

	// An untraced run times the host reference work (hostRef) between ops,
	// once per refEvery; hostScale is refNominalMs over the latest time.
	ref       *hostRef
	refMs     []float64
	lastRef   time.Time
	hostScale float64

	attempted, failed int
	failures          []string

	info   [][2]string
	layers map[string]float64

	heapAllocs []metrics.Sample
}

// maxFailureNotes caps how many failure descriptions a run keeps.
const maxFailureNotes = 5

// traceEventLimit bounds the span buffer of a traced run.
const traceEventLimit = 1 << 18

func newBench(wl string, seed uint64, sc scale, budget time.Duration, traced bool) *bench {
	b := &bench{
		wl:         wl,
		seed:       seed,
		sc:         sc,
		budget:     budget,
		traced:     traced,
		epoch:      time.Now(),
		layers:     map[string]float64{},
		heapAllocs: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
		hostScale:  1,
	}
	if traced {
		b.tr = obs.NewTracer()
		b.tr.SetLimit(traceEventLimit)
		b.lanes = map[string]obs.Lane{}
	} else {
		b.ref = newHostRef()
	}
	return b
}

// refEvery is how often an untraced run times the host reference work; at
// about 30 ms a time, with the collection before it, it costs 3% of the run.
const refEvery = time.Second

// refNominalMs is the host reference time the end-to-end timings are scaled
// to: its median over 80 runs on a 2-CPU cloud host was 5.9 ms.
const refNominalMs = 6.0

// hostTick times the host reference work if refEvery has passed since it
// last ran, and rescales the samples that follow by it. It runs between ops,
// never inside one. A full collection first keeps the garbage collector out
// of the reference's time, which would otherwise grow with how much the
// simulator allocates.
func (b *bench) hostTick() {
	if b.ref == nil || time.Since(b.lastRef) < refEvery {
		return
	}
	runtime.GC()
	ms := b.ref.run()
	b.refMs = append(b.refMs, ms)
	b.hostScale = refNominalMs / ms
	b.lastRef = time.Now()
}

// loop runs rounds until the next one would overrun the time budget,
// judging by the last round's length. A run has at least one round; a
// traced run has at least two, and its odd rounds are the traced ones.
func (b *bench) loop(round func(r int, traced bool) error) error {
	start := time.Now()
	var last time.Duration
	minRounds := 1
	if b.traced {
		minRounds = 2
	}
	for r := 0; ; r++ {
		if r >= minRounds && time.Since(start)+last > b.budget {
			b.note("rounds", fmt.Sprint(r))
			return nil
		}
		t := time.Now()
		b.round = r
		if err := round(r, b.traced && r%2 == 1); err != nil {
			return err
		}
		last = time.Since(t)
	}
}

// setup times one repetition of a workload's set-up. Every round sets up
// again, so the set-ups are spread over the whole run like the ops.
func (b *bench) setup(f func()) {
	b.hostTick()
	t := time.Now()
	f()
	d := time.Since(t)
	b.setupNorm = append(b.setupNorm, d.Seconds()*b.hostScale)
	b.setupRound = append(b.setupRound, b.round)
}

// op times f as one measured operation. Untraced ops feed the end-to-end
// samples; traced ops get an "op" span that their inner spans share the
// id of.
func (b *bench) op(traced bool, f func()) {
	b.opSeq++
	if traced {
		t := time.Now()
		f()
		end := time.Now()
		b.span("op", t, end)
		b.tracedOps++
		b.tracedNs += float64(end.Sub(t))
		return
	}
	b.hostTick()
	a0 := b.heapAllocated()
	t := time.Now()
	f()
	d := time.Since(t)
	b.allocBytes += float64(b.heapAllocated() - a0)
	b.opMs = append(b.opMs, float64(d)/1e6)
	b.opNorm = append(b.opNorm, float64(d)/1e6*b.hostScale)
	b.opRound = append(b.opRound, b.round)
	b.opNs += float64(d)
}

// verify records one op's correctness verdict.
func (b *bench) verify(err error) {
	b.attempted++
	if err == nil {
		return
	}
	b.failed++
	if len(b.failures) < maxFailureNotes {
		b.failures = append(b.failures, err.Error())
	}
}

// span records a host-time span on the lane named after the layer; a no-op
// in an untraced run.
func (b *bench) span(name string, start, end time.Time) {
	if b.tr == nil {
		return
	}
	lane, ok := b.lanes[name]
	if !ok {
		lane = b.tr.Lane(name)
		b.lanes[name] = lane
	}
	b.tr.SpanArg(b.simTime(start), b.simTime(end), lane, b.wl, name, "op", b.opSeq)
}

// counter records a cumulative per-layer count after a traced op.
func (b *bench) counter(name string, at time.Time, v int64) {
	if b.tr == nil {
		return
	}
	b.tr.Counter(b.simTime(at), 0, b.wl, name, "value", v)
}

// simTime maps a host instant onto the trace's picosecond timeline, which
// starts when the run does.
func (b *bench) simTime(t time.Time) sim.Time {
	return sim.Time(t.Sub(b.epoch).Nanoseconds() * 1000)
}

func (b *bench) note(key, value string) {
	b.info = append(b.info, [2]string{key, value})
}

func (b *bench) heapAllocated() uint64 {
	metrics.Read(b.heapAllocs)
	return b.heapAllocs[0].Value.Uint64()
}

// endToEnd computes the end-to-end metrics from the untraced, host-normalised
// samples. Every round repeats the same ops in the same order, so an op's
// position in its round names it, and its typical time is the median of its
// repetitions. When the round is the op (figures), its typical time is the
// sum of its parts' typical times, so a disturbance that slowed one part of
// one pass counts once, not in the whole pass. ops_per_s is a round's ops
// over the sum of their typical times and op_ms_p50 the median typical time;
// op_ms_tail is tailPct over every repetition when that leaves ten samples
// beyond it, else op_ms_p50 (figures, with a few passes). setup_s is the
// median typical set-up.
func (b *bench) endToEnd() map[string]float64 {
	typical := byPosition(b.opNorm, b.opRound).medians()
	all := append([]float64(nil), b.opNorm...)
	if b.roundIsOp {
		all, _ = roundSums(b.opNorm, b.opRound)
		typical = []float64{sum(typical)}
	}
	n, total := len(typical), sum(typical)
	p50 := median(typical)
	tail, tailName := p50, "p50"
	if tenBeyond(tailPct, len(all)) {
		tail, tailName = percentile(all, tailPct), fmt.Sprintf("p%d", tailPct)
	}
	b.note("op_samples", fmt.Sprint(len(all)))
	b.note("op_ms_tail_percentile", tailName)
	b.note("setup_samples", fmt.Sprint(len(b.setupNorm)))
	b.note("host_ref_samples", fmt.Sprint(len(b.refMs)))
	b.note("host_ref_ms", fmt.Sprintf("%.4g", median(append([]float64(nil), b.refMs...))))
	return map[string]float64{
		"ops_per_s":       float64(n) / (total / 1e3),
		"op_ms_p50":       p50,
		"op_ms_tail":      tail,
		"alloc_mb_per_op": b.allocBytes / float64(len(all)) / 1e6,
		"setup_s":         median(byPosition(b.setupNorm, b.setupRound).medians()),
	}
}

// positions holds a run's samples by their position within the round:
// positions[i] are the samples at position i, one per round.
type positions [][]float64

// byPosition groups samples xs, where xs[i] ran in round[i].
func byPosition(xs []float64, round []int) positions {
	var p positions
	for i, pos := 0, 0; i < len(xs); i, pos = i+1, pos+1 {
		if i > 0 && round[i] != round[i-1] {
			pos = 0
		}
		if pos == len(p) {
			p = append(p, nil)
		}
		p[pos] = append(p[pos], xs[i])
	}
	return p
}

// medians is the median of each position's samples.
func (p positions) medians() []float64 {
	m := make([]float64, len(p))
	for i, xs := range p {
		m[i] = median(xs)
	}
	return m
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// roundSums adds up each round's samples, making every round one sample.
func roundSums(xs []float64, round []int) (sums []float64, rounds []int) {
	for i, x := range xs {
		if i == 0 || round[i] != round[i-1] {
			sums = append(sums, 0)
			rounds = append(rounds, round[i])
		}
		sums[len(sums)-1] += x
	}
	return sums, rounds
}

// overhead is the traced rounds' throughput loss against the untraced
// rounds of the same run.
func (b *bench) overhead() float64 {
	if b.tracedOps == 0 || len(b.opMs) == 0 {
		return 0
	}
	untraced := float64(len(b.opMs)) / b.opNs
	traced := float64(b.tracedOps) / b.tracedNs
	return 1 - traced/untraced
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
