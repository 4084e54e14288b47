package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestTenBeyond(t *testing.T) {
	if !tenBeyond(99, 1000) || tenBeyond(99, 999) || tenBeyond(50, 19) || !tenBeyond(50, 20) {
		t.Error("tenBeyond misplaces the ten-sample boundary")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{3.5}, 3.5, 3.5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := percentile(xs, 95); got != 95 {
		t.Errorf("p95 of 1..100 = %v, want 95", got)
	}
}

func TestEndToEndUsesEachOpsTypicalTime(t *testing.T) {
	b := newBench("test", 1, scales["smoke"], 0, false)
	// Eight rounds of the same ten ops, each round after a set-up; rounds 2
	// and 5 ran 1.5× slower than the host reference accounted for. Each op's
	// median repetition leaves them out, and so does p75 over all 80.
	for r := 0; r < 8; r++ {
		slow := 1.0
		if r == 2 || r == 5 {
			slow = 1.5
		}
		b.setupNorm = append(b.setupNorm, (0.2+float64(r%3)/10)*slow)
		b.setupRound = append(b.setupRound, r)
		for i := 0; i < 10; i++ {
			d := (10.0 + float64(i)/10) * slow
			b.opNorm = append(b.opNorm, d)
			b.opRound = append(b.opRound, r)
		}
	}
	b.allocBytes = 80e6
	got := b.endToEnd()
	if want := 1000 / 10.45; math.Abs(got["ops_per_s"]-want) > 1e-9 {
		t.Errorf("ops_per_s = %v, want %v", got["ops_per_s"], want)
	}
	if got["op_ms_p50"] != 10.45 || got["op_ms_tail"] != 10.9 {
		t.Errorf("p50 %v, tail %v; want 10.45 and 10.9", got["op_ms_p50"], got["op_ms_tail"])
	}
	// Set-ups 0.2 (rounds 0, 3, 6), 0.3 (1, 4, 7) and 0.6 (2, 5).
	if math.Abs(got["setup_s"]-0.3) > 1e-12 {
		t.Errorf("setup_s = %v, want the median set-up 0.3", got["setup_s"])
	}
	if got["alloc_mb_per_op"] != 1 {
		t.Errorf("alloc_mb_per_op = %v, want 1", got["alloc_mb_per_op"])
	}

	// With a round as the op, three rounds are three ops: too few for a
	// tail, so the median stands in. Each round had one part run twice as
	// long, a different part each time; the round's typical time is the sum
	// of its parts' typical times, which leaves all three out.
	b.roundIsOp = true
	b.opNorm, b.opRound = nil, nil
	for r := 0; r < 3; r++ {
		for i := 0; i < 10; i++ {
			d := 10.0 + float64(i)/10
			if i == r {
				d *= 2
			}
			b.opNorm = append(b.opNorm, d)
			b.opRound = append(b.opRound, r)
		}
	}
	b.allocBytes = 3e6
	got = b.endToEnd()
	if want := 104.5; math.Abs(got["op_ms_p50"]-want) > 1e-9 || got["op_ms_tail"] != got["op_ms_p50"] {
		t.Errorf("round as op: p50 %v, tail %v; want %v for both", got["op_ms_p50"], got["op_ms_tail"], want)
	}
	if got["alloc_mb_per_op"] != 1 {
		t.Errorf("round as op: alloc_mb_per_op = %v, want 1", got["alloc_mb_per_op"])
	}
}

func TestGroupingByPositionAndRound(t *testing.T) {
	xs, rounds := []float64{5, 1, 4, 3, 6, 2}, []int{0, 0, 1, 1, 2, 2}
	p := byPosition(xs, rounds)
	if !reflect.DeepEqual(p, positions{{5, 4, 6}, {1, 3, 2}}) {
		t.Errorf("byPosition = %v", p)
	}
	if got := p.medians(); !reflect.DeepEqual(got, []float64{5, 2}) {
		t.Errorf("medians = %v, want [5 2]", got)
	}
	sums, r := roundSums(xs, rounds)
	if !reflect.DeepEqual(sums, []float64{6, 7, 8}) || !reflect.DeepEqual(r, []int{0, 1, 2}) {
		t.Errorf("roundSums = %v, %v", sums, r)
	}
}

func TestHostTickScalesTheSamplesAfterIt(t *testing.T) {
	b := newBench("test", 1, scales["smoke"], 0, false)
	b.op(false, func() { time.Sleep(time.Millisecond) })
	if len(b.refMs) != 1 || b.refMs[0] <= 0 {
		t.Fatalf("reference times %v, want one before the first op", b.refMs)
	}
	b.op(false, func() {})
	if len(b.refMs) != 1 {
		t.Errorf("reference ran again within refEvery: %v", b.refMs)
	}
	if want := b.opMs[0] * refNominalMs / b.refMs[0]; math.Abs(b.opNorm[0]-want) > 1e-12 {
		t.Errorf("normalised op %v ms, want %v", b.opNorm[0], want)
	}
	traced := newBench("test", 1, scales["smoke"], 0, true)
	traced.hostTick()
	if len(traced.refMs) != 0 {
		t.Error("a traced run timed the host reference")
	}
}
