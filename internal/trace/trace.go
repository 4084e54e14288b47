// Package trace defines the memory-access record types and traffic
// statistics shared by the workload generators, cache models, and memory
// device models.
package trace

import "fmt"

// Op distinguishes loads from stores.
type Op uint8

// Memory operations.
const (
	OpRead Op = iota
	OpWrite
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Access is one memory reference as seen by the L1 data cache: a physical
// address and a size (the CPU issues at most one cacheline, 64 B). The
// fields run widest first so the struct packs into 16 bytes with no
// interior padding, which keeps a core's 64-reference batch at 2 KB.
type Access struct {
	Addr uint64
	Size uint32
	Op   Op
}

// CacheLineSize is the system cacheline granule (Section II-A / V-B).
const CacheLineSize = 64

// Stats accumulates the Table II characterization counters for a workload
// run: raw load/store counts, row-buffer behaviour at the memory device, and
// D$ hit behaviour.
type Stats struct {
	Reads  uint64 // memory loads issued by the program
	Writes uint64 // memory stores issued by the program

	RowBufferHits   uint64 // writes absorbed by an open PSM row buffer
	RowBufferWrites uint64 // writes that reached the PSM

	DReadHits   uint64 // D$ read hits
	DReadTotal  uint64
	DWriteHits  uint64 // D$ write hits
	DWriteTotal uint64
}

// ReadWriteRatio reports #reads / #writes (Table II "Memory #Write" column
// is expressed as the reads-per-write ratio in the paper's tooling).
func (s *Stats) ReadWriteRatio() float64 {
	if s.Writes == 0 {
		return 0
	}
	return float64(s.Reads) / float64(s.Writes)
}

// DReadHitRate reports the D$ read hit ratio.
func (s *Stats) DReadHitRate() float64 {
	if s.DReadTotal == 0 {
		return 0
	}
	return float64(s.DReadHits) / float64(s.DReadTotal)
}

// DWriteHitRate reports the D$ write hit ratio.
func (s *Stats) DWriteHitRate() float64 {
	if s.DWriteTotal == 0 {
		return 0
	}
	return float64(s.DWriteHits) / float64(s.DWriteTotal)
}

// RowBufferHitRate reports the fraction of memory-level writes absorbed by
// an open row buffer.
func (s *Stats) RowBufferHitRate() float64 {
	if s.RowBufferWrites == 0 {
		return 0
	}
	return float64(s.RowBufferHits) / float64(s.RowBufferWrites)
}

// Merge adds other's counters into s.
func (s *Stats) Merge(other *Stats) {
	s.Reads += other.Reads
	s.Writes += other.Writes
	s.RowBufferHits += other.RowBufferHits
	s.RowBufferWrites += other.RowBufferWrites
	s.DReadHits += other.DReadHits
	s.DReadTotal += other.DReadTotal
	s.DWriteHits += other.DWriteHits
	s.DWriteTotal += other.DWriteTotal
}

// String summarizes the counters.
func (s *Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d r/w=%.1f rbHit=%.1f%% d$r=%.1f%% d$w=%.1f%%",
		s.Reads, s.Writes, s.ReadWriteRatio(),
		100*s.RowBufferHitRate(), 100*s.DReadHitRate(), 100*s.DWriteHitRate())
}
