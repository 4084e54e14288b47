package psm

import "repro/internal/obs"

// SetTracer attaches a sim-time tracer; the PSM emits flush spans (with the
// number of drained lines), wear-scrub spans, and MCE instants onto its own
// lane. nil detaches at zero cost.
func (p *PSM) SetTracer(tr *obs.Tracer) {
	p.tr = tr
	p.trLane = tr.Lane("psm")
}

// RegisterMetrics exposes the PSM counters and latency histograms under
// prefix. The Stats struct and the histograms stay the raw views the hot
// paths update; the registry samples them at export time.
func (p *PSM) RegisterMetrics(r *obs.Registry, prefix string) {
	if r == nil {
		return
	}
	r.CounterFunc(prefix+"reads_total", "cacheline reads serviced", func() uint64 { return p.stats.Reads })
	r.CounterFunc(prefix+"writes_total", "cacheline writes serviced", func() uint64 { return p.stats.Writes })
	r.CounterFunc(prefix+"rowbuffer_hits_total", "writes absorbed by an open window", func() uint64 { return p.stats.RowBufferHits })
	r.CounterFunc(prefix+"rowbuffer_serves_total", "reads served from a dirty window", func() uint64 { return p.stats.RowBufferServes })
	r.CounterFunc(prefix+"reconstructs_total", "reads served via XCC instead of blocking", func() uint64 { return p.stats.Reconstructs })
	r.CounterFunc(prefix+"blocked_reads_total", "reads that waited on a cooling window", func() uint64 { return p.stats.BlockedReads })
	r.CounterFunc(prefix+"media_writes_total", "programs issued to the PRAM", func() uint64 { return p.stats.MediaWrites })
	r.CounterFunc(prefix+"mces_total", "uncontained corruption machine checks", func() uint64 { return p.stats.MCEs })
	r.CounterFunc(prefix+"contained_errors_total", "corruptions repaired by XCC", func() uint64 { return p.stats.ContainedErrors })
	r.CounterFunc(prefix+"symbol_corrected_total", "corruptions repaired by the symbol code", func() uint64 { return p.stats.SymbolCorrected })
	r.CounterFunc(prefix+"wearlevel_moves_total", "Start-Gap rotations", func() uint64 { return p.stats.WearLevelMoves })
	r.CounterFunc(prefix+"flushes_total", "flush-port invocations", func() uint64 { return p.stats.Flushes })
	r.CounterFunc(prefix+"drained_lines_total", "dirty lines written back by flush", func() uint64 { return p.stats.DrainedOnFlushes })
	r.Histogram(prefix+"read_latency_seconds", "cacheline read latency, port to data", p.readLat)
	r.Histogram(prefix+"write_ack_latency_seconds", "cacheline write latency, port to acknowledgement", p.writeAckLat)
}
