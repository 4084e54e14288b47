package obs

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// The nil tracer and nil registry are the disabled instruments: every
// method must no-op without panicking and without allocating.
func TestNilInstrumentsAreSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	lane := tr.Lane("master")
	id := tr.Begin(0, lane, "cat", "span")
	tr.End(5, id)
	tr.Span(0, 10, lane, "cat", "span")
	tr.SpanArg(0, 10, lane, "cat", "span", "n", 1)
	tr.Instant(3, lane, "cat", "mark")
	tr.InstantArg(3, lane, "cat", "mark", "n", 2)
	tr.Reset()
	tr.SetPid(1)
	tr.SetLimit(4)
	if tr.Len() != 0 || tr.Events() != nil || tr.Lost() != 0 || tr.LaneName(lane) != "" {
		t.Fatal("nil tracer leaked state")
	}

	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
	h := new(sim.LatencyHistogram)
	r.Histogram("h", "", h)
	r.CounterFunc("cf", "", func() uint64 { return 1 })
	r.GaugeFunc("gf", "", func() float64 { return 1 })
	RegisterTraceStats(r, "x_", &trace.Stats{})
	if r.Len() != 0 || r.Lookup("cf") != nil || r.Lookup("h") != nil {
		t.Fatal("nil registry leaked state")
	}
}

func TestDisabledInstrumentsAllocFree(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		id := tr.Begin(0, 0, "cat", "span")
		tr.End(1, id)
		tr.Span(0, 1, 0, "cat", "span")
		tr.Instant(0, 0, "cat", "mark")
		tr.InstantArg(0, 0, "cat", "mark", "n", 1)
	})
	if allocs != 0 {
		t.Fatalf("disabled instruments allocated %.2f allocs/op, want 0", allocs)
	}
}

func buildTracer() *Tracer {
	tr := NewTracer()
	master := tr.Lane("master")
	core1 := tr.Lane("core1")
	id := tr.Begin(0, master, "sng", "drive-to-idle")
	tr.Instant(sim.Time(10*sim.Microsecond), core1, "sng", "ipi")
	tr.End(sim.Time(40*sim.Microsecond), id)
	tr.SpanArg(sim.Time(40*sim.Microsecond), sim.Time(90*sim.Microsecond), core1, "sng", "flush", "lines", 128)
	tr.InstantArg(sim.Time(90*sim.Microsecond), master, "sng", "commit", "ok", 1)
	return tr
}

func TestChromeExportDeterministicAndValid(t *testing.T) {
	a := ChromeTraceBytes(nil, buildTracer())
	b := ChromeTraceBytes(nil, buildTracer())
	if !bytes.Equal(a, b) {
		t.Fatal("same events produced different trace bytes")
	}
	if err := ValidateChromeTrace(a); err != nil {
		t.Fatalf("exported trace fails validation: %v", err)
	}
	for _, want := range []string{
		`"name":"drive-to-idle"`, `"name":"core1"`, `"ph":"X"`, `"ph":"i"`,
		`"args":{"lines":128}`, `"ts":40.000000`, `"dur":50.000000`,
	} {
		if !strings.Contains(string(a), want) {
			t.Fatalf("trace missing %s:\n%s", want, a)
		}
	}
}

func TestChromeExportMergesTracersByPid(t *testing.T) {
	t1, t2 := buildTracer(), buildTracer()
	t2.SetPid(1)
	data := ChromeTraceBytes([]string{"cell-a", "cell-b"}, t1, t2)
	if err := ValidateChromeTrace(data); err != nil {
		t.Fatalf("merged trace fails validation: %v", err)
	}
	for _, want := range []string{`"name":"cell-a"`, `"name":"cell-b"`, `"pid":1`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("merged trace missing %s", want)
		}
	}
}

func TestChromeValidateRejectsMalformed(t *testing.T) {
	cases := []struct{ label, doc string }{
		{"not json", `{"traceEvents":`},
		{"no traceEvents", `{}`},
		{"missing name", `{"traceEvents":[{"ph":"X","ts":0,"dur":1,"pid":0,"tid":0}]}`},
		{"missing dur", `{"traceEvents":[{"ph":"X","name":"x","ts":0,"pid":0,"tid":0}]}`},
		{"unnamed row", `{"traceEvents":[{"ph":"X","name":"x","ts":0,"dur":1,"pid":0,"tid":9}]}`},
		{"negative ts", `{"traceEvents":[{"ph":"M","name":"thread_name","pid":0,"tid":0,"args":{"name":"m"}},{"ph":"X","name":"x","ts":-1,"dur":1,"pid":0,"tid":0}]}`},
		{"unknown phase", `{"traceEvents":[{"ph":"Z","name":"x","pid":0,"tid":0}]}`},
		{"scopeless inst", `{"traceEvents":[{"ph":"M","name":"thread_name","pid":0,"tid":0,"args":{"name":"m"}},{"ph":"i","name":"x","ts":0,"pid":0,"tid":0}]}`},
		{"nameless thread", `{"traceEvents":[{"ph":"M","name":"thread_name","pid":0,"tid":0,"args":{}}]}`},
	}
	for _, c := range cases {
		if err := ValidateChromeTrace([]byte(c.doc)); err == nil {
			t.Errorf("%s: validator accepted malformed document", c.label)
		}
	}
}

func TestTracerOpenSpanClampsAndLimit(t *testing.T) {
	tr := NewTracer()
	tr.SetLimit(2)
	id := tr.Begin(100, 0, "c", "open") // never ended
	_ = id
	tr.Span(0, 10, 0, "c", "full")
	tr.Instant(5, 0, "c", "dropped")
	if tr.Len() != 2 || tr.Lost() != 1 {
		t.Fatalf("limit: len=%d lost=%d, want 2/1", tr.Len(), tr.Lost())
	}
	data := ChromeTraceBytes(nil, tr)
	if err := ValidateChromeTrace(data); err != nil {
		t.Fatalf("open span export invalid: %v", err)
	}
	if !strings.Contains(string(data), `"name":"open","cat":"c","ts":0.000100,"dur":0.000000`) {
		t.Fatalf("open span not clamped to zero duration:\n%s", data)
	}
	// End after Begin on a dropped-span handle (0) must stay a no-op.
	tr.End(999, 0)
	tr.Reset()
	if tr.Len() != 0 || tr.Lost() != 0 {
		t.Fatal("Reset did not clear the buffer")
	}
	if tr.LaneName(0) != "main" {
		t.Fatal("Reset dropped the lane table")
	}
}

func TestRegistryExportsSortedAndValid(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("z_last", "the last metric", func() uint64 { return 7 })
	r.GaugeFunc("a_first", "the first metric", func() float64 { return 2.5 })
	h := new(sim.LatencyHistogram)
	r.Histogram("m_hist", "a histogram", h)
	h.Add(500 * sim.Nanosecond)
	h.Add(2 * sim.Microsecond)
	h.Add(20 * sim.Millisecond) // above sim.LatencyTop: only in +Inf
	r.CounterFunc("f_func", "sampled", func() uint64 { return 42 })

	prom := r.PrometheusBytes()
	if err := ValidatePrometheus(prom); err != nil {
		t.Fatalf("prometheus output invalid: %v\n%s", err, prom)
	}
	text := string(prom)
	for _, want := range []string{
		"# TYPE a_first gauge", "a_first 2.5",
		"# TYPE f_func counter", "f_func 42",
		"# TYPE z_last counter", "z_last 7",
		"# TYPE m_hist histogram",
		// The buckets holding 500 ns and 2 µs end at 524287 and
		// 2097151 ps.
		`m_hist_bucket{le="5.24287e-07"} 1`,
		`m_hist_bucket{le="2.097151e-06"} 2`,
		`m_hist_bucket{le="+Inf"} 3`,
		"m_hist_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, text)
		}
	}
	// Name-sorted: a_first before f_func before m_hist before z_last.
	if !(strings.Index(text, "a_first") < strings.Index(text, "f_func") &&
		strings.Index(text, "f_func") < strings.Index(text, "m_hist") &&
		strings.Index(text, "m_hist") < strings.Index(text, "z_last")) {
		t.Fatalf("prometheus output not name-sorted:\n%s", text)
	}

	if !bytes.Equal(prom, r.PrometheusBytes()) {
		t.Fatal("prometheus export not deterministic")
	}
	j := r.JSONBytes()
	if !bytes.Equal(j, r.JSONBytes()) {
		t.Fatal("JSON export not deterministic")
	}
	for _, want := range []string{`"name":"m_hist"`, `"sum_ps":20002500000`, `"le_ps":2097151,"count":2`, `"value":42`} {
		if !strings.Contains(string(j), want) {
			t.Fatalf("JSON snapshot missing %s:\n%s", want, j)
		}
	}
}

func TestValidatePrometheusRejectsMalformed(t *testing.T) {
	cases := []struct{ label, doc string }{
		{"no type", "orphan 3\n"},
		{"bad value", "# TYPE m counter\nm notanumber\n"},
		{"bad type", "# TYPE m zebra\nm 3\n"},
		{"one field", "# TYPE m counter\nm\n"},
	}
	for _, c := range cases {
		if err := ValidatePrometheus([]byte(c.doc)); err == nil {
			t.Errorf("%s: validator accepted malformed text", c.label)
		}
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate metric name did not panic")
		}
	}()
	r := NewRegistry()
	r.CounterFunc("dup", "", func() uint64 { return 0 })
	r.GaugeFunc("dup", "", func() float64 { return 0 })
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := new(sim.LatencyHistogram)
	r.Histogram("h", "", h)
	samples := []sim.Duration{-3, 0, 5, 10, 16, 17, 40, 42, sim.LatencyTop}
	var sum sim.Duration
	for _, d := range samples {
		h.Add(d)
		sum += d
	}
	// Bucket 0 holds every sample ≤ 0; 16 and 17 share [16, 17], 40 and 42
	// share [40, 43]; LatencyTop is counted only by the +Inf line.
	bounds, cum := r.Lookup("h").Hist().Buckets()
	wantLe := []sim.Duration{0, 5, 10, 17, 43}
	wantCum := []uint64{2, 3, 4, 6, 8}
	if !slices.Equal(bounds, wantLe) || !slices.Equal(cum, wantCum) {
		t.Fatalf("cumulative buckets = %v at %v, want %v at %v", cum, bounds, wantCum, wantLe)
	}
	if h.Count() != len(samples) || h.Sum() != sum {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
	prom := string(r.PrometheusBytes())
	for _, want := range []string{`h_bucket{le="0"} 2`, `h_bucket{le="4.3e-11"} 8`, `h_bucket{le="+Inf"} 9`, "h_count 9"} {
		if !strings.Contains(prom, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, prom)
		}
	}
}
