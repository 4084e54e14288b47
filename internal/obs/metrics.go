package obs

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// MetricKind distinguishes the registered metric types.
type MetricKind uint8

// Metric kinds.
const (
	KindCounter MetricKind = iota
	KindGauge
	KindHistogram
)

// String names the kind in Prometheus TYPE terms.
func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Metric is one registry entry: a name, help text, and exactly one backing
// instrument (a sampling func, or a view on a histogram its owner records
// into).
type Metric struct {
	Name string
	Help string
	Kind MetricKind

	h  *sim.LatencyHistogram
	cf func() uint64
	gf func() float64
}

// Value samples the metric's scalar value (counter/gauge only).
func (m *Metric) Value() float64 {
	switch {
	case m.cf != nil:
		return float64(m.cf())
	case m.gf != nil:
		return m.gf()
	default:
		return 0
	}
}

// Hist exposes the backing histogram (nil for scalar metrics).
func (m *Metric) Hist() *sim.LatencyHistogram { return m.h }

// Registry holds named metrics. The nil registry is the disabled registry:
// registration funcs do nothing. Metrics are kept in an insertion-ordered
// slice with a name index — exports sort by name, never by map order.
type Registry struct {
	byName  map[string]int
	metrics []*Metric
}

// NewRegistry returns an enabled registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]int{}}
}

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r != nil }

// add registers m, panicking on a duplicate name (two subsystems fighting
// over one metric is a wiring bug worth failing loudly on).
func (r *Registry) add(m *Metric) {
	if _, ok := r.byName[m.Name]; ok {
		panic(fmt.Sprintf("obs: duplicate metric %q", m.Name))
	}
	r.byName[m.Name] = len(r.metrics)
	r.metrics = append(r.metrics, m)
}

// Histogram registers a view on h, a sim-time histogram its owner keeps
// recording into (a device's latency histogram). The exporters read h at
// export time, so registration adds nothing to the owner's Add path.
func (r *Registry) Histogram(name, help string, h *sim.LatencyHistogram) {
	if r == nil {
		return
	}
	r.add(&Metric{Name: name, Help: help, Kind: KindHistogram, h: h})
}

// CounterFunc registers a counter sampled from fn at export time — the
// bridge from existing stats structs (trace.Stats, psm.Stats, …) into the
// registry without moving their hot-path increments.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	if r == nil {
		return
	}
	r.add(&Metric{Name: name, Help: help, Kind: KindCounter, cf: fn})
}

// GaugeFunc registers a gauge sampled from fn at export time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.add(&Metric{Name: name, Help: help, Kind: KindGauge, gf: fn})
}

// Len reports the number of registered metrics.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.metrics)
}

// Lookup returns the metric registered under name, or nil.
func (r *Registry) Lookup(name string) *Metric {
	if r == nil {
		return nil
	}
	if i, ok := r.byName[name]; ok {
		return r.metrics[i]
	}
	return nil
}

// RegisterTraceStats exposes a trace.Stats as registered metrics. Stats
// stays the plain-struct view the hot paths increment; the registry samples
// it at export time, so registration costs the hot paths nothing.
func RegisterTraceStats(r *Registry, prefix string, s *trace.Stats) {
	if r == nil || s == nil {
		return
	}
	r.CounterFunc(prefix+"reads_total", "memory loads issued by the program", func() uint64 { return s.Reads })
	r.CounterFunc(prefix+"writes_total", "memory stores issued by the program", func() uint64 { return s.Writes })
	r.CounterFunc(prefix+"rowbuffer_hits_total", "writes absorbed by an open PSM row buffer", func() uint64 { return s.RowBufferHits })
	r.CounterFunc(prefix+"rowbuffer_writes_total", "writes that reached the PSM", func() uint64 { return s.RowBufferWrites })
	r.CounterFunc(prefix+"dcache_read_hits_total", "D$ read hits", func() uint64 { return s.DReadHits })
	r.CounterFunc(prefix+"dcache_reads_total", "D$ read lookups", func() uint64 { return s.DReadTotal })
	r.CounterFunc(prefix+"dcache_write_hits_total", "D$ write hits", func() uint64 { return s.DWriteHits })
	r.CounterFunc(prefix+"dcache_writes_total", "D$ write lookups", func() uint64 { return s.DWriteTotal })
}
