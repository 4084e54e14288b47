// Package obs is the deterministic observability layer: a sim-time span/
// event tracer and a typed metrics registry, with exporters for the Chrome
// trace-event JSON format (Perfetto timelines) and the Prometheus text
// format.
//
// Two properties govern every type here:
//
//   - Sim time only. Events and histogram samples are keyed to sim.Time /
//     sim.Duration — never the wall clock — so an enabled tracer is exactly
//     as reproducible as the simulation itself: same seed, same bytes. The
//     determinism analyzer (cmd/lightpc-lint) enforces this statically at
//     its strictest level, along with a ban on map iteration here.
//
//   - Zero cost when disabled. The nil *Tracer and nil *Registry are the
//     disabled instruments: every method is a nil-safe no-op, so
//     instrumented hot paths (SnG phases, device access) stay
//     0 allocs/op with observability off (asserted by bench_test.go).
//     Instrumentation therefore threads plain nil-able pointers, not
//     interfaces — an interface call would defeat both the nil fast path
//     and inlining.
//
// Buffering is arena-style: events land in a flat slice that Reset reuses,
// and an optional cap turns the buffer into a bounded arena that drops (and
// counts) overflow rather than growing without bound.
package obs

import "repro/internal/sim"

// Lane identifies one timeline row (a Perfetto "thread"): a core, a device,
// the SnG master. Lane 0 is the default lane of an unconfigured tracer.
type Lane int32

// EventKind distinguishes the trace event shapes.
type EventKind uint8

// Event kinds.
const (
	// KindSpan is a complete duration event (Chrome phase "X").
	KindSpan EventKind = iota
	// KindInstant is a point event (Chrome phase "i").
	KindInstant
	// KindCounterSample is a counter-series sample (Chrome phase "C"):
	// Name is the counter series, ArgName/Arg carry the sampled value.
	KindCounterSample
)

// Event is one recorded trace entry. Name and Cat are expected to be
// static strings (or at least strings whose construction the caller
// amortizes); the tracer stores them as-is.
type Event struct {
	Start sim.Time
	// Dur is the span length; negative marks a still-open span (Begin
	// without End), which the exporter clamps to zero.
	Dur  sim.Duration
	Lane Lane
	Kind EventKind
	Cat  string
	Name string

	// ArgName/Arg carry one optional integer argument ("lines", "bytes").
	ArgName string
	Arg     int64
}

// SpanID is a handle to an open span. The zero SpanID is invalid; End(0)
// is a no-op, so Begin/End pairs stay safe when the tracer is disabled.
type SpanID int

// Tracer records sim-time events into a pooled in-memory buffer. The nil
// tracer is the disabled tracer: every method no-ops. Tracers are not safe
// for concurrent use — one tracer belongs to one single-threaded simulation
// (parallel experiment cells each own a tracer and merge canonically; see
// WriteChromeTrace).
type Tracer struct {
	pid    int32
	events []Event
	lanes  []string
	byName map[string]Lane
	limit  int
	lost   uint64
}

// NewTracer returns an enabled tracer with one default lane ("main").
func NewTracer() *Tracer {
	return &Tracer{
		lanes:  []string{"main"},
		byName: map[string]Lane{"main": 0},
	}
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// SetPid assigns the Chrome "process" id, letting several tracers merge
// into one timeline (one process per experiment cell).
func (t *Tracer) SetPid(pid int) {
	if t == nil {
		return
	}
	t.pid = int32(pid)
}

// Pid reports the Chrome process id.
func (t *Tracer) Pid() int {
	if t == nil {
		return 0
	}
	return int(t.pid)
}

// SetLimit bounds the event buffer: once len(events) reaches n, further
// events are dropped and counted (Lost). Zero removes the bound.
func (t *Tracer) SetLimit(n int) {
	if t == nil {
		return
	}
	t.limit = n
}

// Lost reports how many events the limit dropped.
func (t *Tracer) Lost() uint64 {
	if t == nil {
		return 0
	}
	return t.lost
}

// Lane returns the lane with the given name, registering it on first use.
// On a nil tracer it returns the zero lane.
func (t *Tracer) Lane(name string) Lane {
	if t == nil {
		return 0
	}
	if l, ok := t.byName[name]; ok {
		return l
	}
	l := Lane(len(t.lanes))
	t.lanes = append(t.lanes, name)
	t.byName[name] = l
	return l
}

// LaneName reports the registered name of l ("" when unknown).
func (t *Tracer) LaneName(l Lane) string {
	if t == nil || int(l) < 0 || int(l) >= len(t.lanes) {
		return ""
	}
	return t.lanes[l]
}

// Lanes reports the registered lane names in lane order.
func (t *Tracer) Lanes() []string {
	if t == nil {
		return nil
	}
	return t.lanes
}

// push appends one event, honoring the limit. It reports the slot index,
// or -1 when the event was dropped.
//
//lightpc:zeroalloc
func (t *Tracer) push(ev Event) int {
	if t.limit > 0 && len(t.events) >= t.limit {
		t.lost++
		return -1
	}
	//lint:allow zeroalloc buffer growth is amortized; Reset reuses the backing array
	t.events = append(t.events, ev)
	return len(t.events) - 1
}

// Span records a complete [start, end] span on lane.
//
//lightpc:zeroalloc
func (t *Tracer) Span(start, end sim.Time, lane Lane, cat, name string) {
	if t == nil {
		return
	}
	t.push(Event{Start: start, Dur: end.Sub(start), Lane: lane, Kind: KindSpan, Cat: cat, Name: name})
}

// SpanArg records a complete span carrying one integer argument.
//
//lightpc:zeroalloc
func (t *Tracer) SpanArg(start, end sim.Time, lane Lane, cat, name, argName string, arg int64) {
	if t == nil {
		return
	}
	t.push(Event{Start: start, Dur: end.Sub(start), Lane: lane, Kind: KindSpan, Cat: cat, Name: name, ArgName: argName, Arg: arg})
}

// Begin opens a span at 'at'; the returned handle closes it via End. On a
// nil tracer (or a full buffer) it returns 0, which End ignores.
//
//lightpc:zeroalloc
func (t *Tracer) Begin(at sim.Time, lane Lane, cat, name string) SpanID {
	if t == nil {
		return 0
	}
	idx := t.push(Event{Start: at, Dur: -1, Lane: lane, Kind: KindSpan, Cat: cat, Name: name})
	return SpanID(idx + 1)
}

// End closes the span opened by Begin at 'at'. Ending the zero SpanID is a
// no-op; an End earlier than its Begin clamps to a zero-length span.
//
//lightpc:zeroalloc
func (t *Tracer) End(at sim.Time, id SpanID) {
	if t == nil || id <= 0 || int(id) > len(t.events) {
		return
	}
	ev := &t.events[id-1]
	if d := at.Sub(ev.Start); d > 0 {
		ev.Dur = d
	} else {
		ev.Dur = 0
	}
}

// EndArg closes the span and attaches one integer argument.
//
//lightpc:zeroalloc
func (t *Tracer) EndArg(at sim.Time, id SpanID, argName string, arg int64) {
	if t == nil || id <= 0 || int(id) > len(t.events) {
		return
	}
	t.End(at, id)
	ev := &t.events[id-1]
	ev.ArgName, ev.Arg = argName, arg
}

// Instant records a point event.
//
//lightpc:zeroalloc
func (t *Tracer) Instant(at sim.Time, lane Lane, cat, name string) {
	if t == nil {
		return
	}
	t.push(Event{Start: at, Lane: lane, Kind: KindInstant, Cat: cat, Name: name})
}

// InstantArg records a point event carrying one integer argument.
//
//lightpc:zeroalloc
func (t *Tracer) InstantArg(at sim.Time, lane Lane, cat, name, argName string, arg int64) {
	if t == nil {
		return
	}
	t.push(Event{Start: at, Lane: lane, Kind: KindInstant, Cat: cat, Name: name, ArgName: argName, Arg: arg})
}

// Counter records one sample of a counter series — Perfetto renders each
// named series on lane as its own stacked counter track ("C" rows). Arg is
// the cumulative value at 'at'; argName names the unit/series key.
//
//lightpc:zeroalloc
func (t *Tracer) Counter(at sim.Time, lane Lane, cat, name, argName string, arg int64) {
	if t == nil {
		return
	}
	t.push(Event{Start: at, Lane: lane, Kind: KindCounterSample, Cat: cat, Name: name, ArgName: argName, Arg: arg})
}

// Len reports the number of buffered events.
//
//lightpc:zeroalloc
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Events exposes the buffered events in record order (the deterministic
// export order). The slice is owned by the tracer; callers must not hold it
// across Reset.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// Reset discards the events but keeps the buffer capacity and the lane
// table — the pooled-arena reuse discipline.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.events = t.events[:0]
	t.lost = 0
}
