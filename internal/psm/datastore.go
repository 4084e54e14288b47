package psm

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/ecc"
	"repro/internal/linetab"
	"repro/internal/sim"
	"repro/internal/trace"
)

// DataStore is the functional companion to the PSM's timing model: it
// carries the actual bytes of every written cacheline, maintains the XCC
// parity and (optionally) the Reed–Solomon codeword that the recovery
// paths of Sections V-A and VIII operate on, and supports device-failure
// injection so byte-exact reconstruction is testable end to end.
//
// The split between timing (PSM) and content (DataStore) mirrors the
// hardware: the datapath moves bits; the PSM decides when they move. Use
// WriteData/ReadData to get both.
type DataStore struct {
	psm *PSM

	lines    *linetab.Slab // line -> 64 B content, slab-packed
	rsWords  *linetab.Slab // line -> RS codeword (when hybrid on)
	rs       *ecc.RS
	deadDevs map[devKey]bool

	// slabsShared marks lines and rsWords as shared with a clone or with
	// the store this one was cloned from: the next write copies them
	// first. CloneFor sets it on its source with an atomic store, so
	// several goroutines may clone one store at once.
	slabsShared atomic.Bool

	reconstructions uint64 // XCC byte-level rebuilds served
	symbolRepairs   uint64 // RS byte-level rebuilds served
}

type devKey struct {
	dimm, dev int
}

// ErrDataLoss is returned when a line's granules are unrecoverable with
// the configured codes.
var ErrDataLoss = errors.New("psm: data loss — granules dead beyond ECC coverage")

// NewDataStore attaches a content store to the PSM. When the PSM's
// SymbolECC is enabled every line also carries an RS(t=8) codeword.
func NewDataStore(p *PSM) *DataStore {
	ds := &DataStore{
		psm:      p,
		lines:    linetab.NewSlab(trace.CacheLineSize),
		deadDevs: make(map[devKey]bool),
	}
	if p.cfg.SymbolECC {
		ds.rs = ecc.NewRS(8)
		ds.rsWords = linetab.NewSlab(trace.CacheLineSize + ds.rs.ParitySymbols())
	}
	return ds
}

// KillDevice marks one PRAM device dead (a large-granularity fault: every
// granule it holds is gone).
func (ds *DataStore) KillDevice(dimm, dev int) {
	if dimm < 0 || dimm >= len(ds.psm.dimms) {
		panic(fmt.Sprintf("psm: no such DIMM %d", dimm))
	}
	if dev < 0 || dev >= ds.psm.cfg.NVDIMM.DevicesPerDIMM {
		panic(fmt.Sprintf("psm: no such device %d", dev))
	}
	ds.deadDevs[devKey{dimm, dev}] = true
}

// ReviveDevice clears a device's failure (after repair/replacement; the
// content is still gone until rewritten or scrubbed).
func (ds *DataStore) ReviveDevice(dimm, dev int) {
	delete(ds.deadDevs, devKey{dimm, dev})
}

// Locate resolves a line to the DIMM and first device index of its data
// pair and parity pair (fault-injection targets).
func (ds *DataStore) Locate(line uint64) (dimm, dataFirst, parityFirst int) {
	return ds.location(line)
}

// location resolves a line to its data devices and parity devices.
func (ds *DataStore) location(line uint64) (dimm int, dataFirst, parityFirst int) {
	d, di, inner := ds.psm.mapLine(line)
	first, _ := d.PairFor(inner)
	pFirst := (first + 2) % ds.psm.cfg.NVDIMM.DevicesPerDIMM
	return di, first, pFirst
}

func (ds *DataStore) dead(dimm, dev int) bool { return ds.deadDevs[devKey{dimm, dev}] }

// WriteData performs a timed write carrying real content: the 64 B line is
// stored, the XCC parity implied by it becomes available on the parity
// pair, and the RS codeword is refreshed when the hybrid is on.
func (ds *DataStore) WriteData(now sim.Time, line uint64, data []byte) sim.Time {
	if len(data) != trace.CacheLineSize {
		panic(fmt.Sprintf("psm: WriteData needs 64 B, got %d", len(data)))
	}
	if ds.slabsShared.Load() {
		ds.lines = ds.lines.Clone()
		ds.rsWords = ds.rsWords.Clone()
		ds.slabsShared.Store(false)
	}
	ds.lines.Put(line, data)
	if ds.rs != nil {
		ds.rsWords.Put(line, ds.rs.Encode(data))
	}
	return ds.psm.Write(now, line)
}

// ReadData performs a timed read returning real content, reconstructing
// through dead devices: one dead half comes back via the XOR parity
// (provided the parity devices are alive); with both halves dead the RS
// codeword is decoded when available. The timing cost of the recovery path
// rides the PSM's model (reconstruction reads / symbol decode latency).
func (ds *DataStore) ReadData(now sim.Time, line uint64) ([]byte, sim.Time, error) {
	out := make([]byte, trace.CacheLineSize)
	done, err := ds.ReadInto(now, line, out)
	if err != nil {
		return nil, done, err
	}
	return out, done, nil
}

// ReadInto is ReadData filling the caller's 64 B buf instead of returning a
// new slice; a read of a line no device lost allocates nothing. buf holds
// no line when the error is non-nil.
func (ds *DataStore) ReadInto(now sim.Time, line uint64, buf []byte) (sim.Time, error) {
	if len(buf) != trace.CacheLineSize {
		panic(fmt.Sprintf("psm: ReadInto needs 64 B, got %d", len(buf)))
	}
	done := ds.psm.Read(now, line)
	stored, ok := ds.lines.Get(line)
	if !ok {
		// Never written: PRAM reads back zeroes.
		clear(buf)
		return done, nil
	}
	dimm, dataFirst, parityFirst := ds.location(line)
	loDead := ds.dead(dimm, dataFirst)
	hiDead := ds.dead(dimm, dataFirst+1)
	parityDead := ds.dead(dimm, parityFirst) || ds.dead(dimm, parityFirst+1)

	switch {
	case !loDead && !hiDead:
		copy(buf, stored)
		return done, nil
	case (loDead != hiDead) && !parityDead && ds.psm.cfg.XCC:
		// Exactly one half dead: rebuild it from sibling ⊕ parity — the
		// real XOR, not a flag.
		lo, hi := stored[:ecc.HalfSize], stored[ecc.HalfSize:]
		parity := ecc.XCCParity(lo, hi) // what the parity devices hold
		if loDead {
			copy(buf, ecc.XCCReconstruct(hi, parity))
			copy(buf[ecc.HalfSize:], hi)
		} else {
			copy(buf, lo)
			copy(buf[ecc.HalfSize:], ecc.XCCReconstruct(lo, parity))
		}
		ds.reconstructions++
		return done, nil
	case ds.rs != nil:
		// Two or more granule sets dead: the Section VIII symbol code.
		rw, _ := ds.rsWords.Get(line)
		word := append([]byte{}, rw...)
		// The dead granules read as erased zeroes; model as symbol errors
		// within the code's reach (t=8 symbols); beyond that it fails.
		damage := 0
		if loDead {
			damage += 4
		}
		if hiDead {
			damage += 4
		}
		for i := 0; i < damage; i++ {
			word[(int(line)+i*7)%len(word)] ^= 0xFF
		}
		data, err := ds.rs.Decode(word)
		if err != nil {
			return done, ErrDataLoss
		}
		ds.symbolRepairs++
		copy(buf, data)
		return done.Add(ds.psm.cfg.SymbolDecodeLatency), nil
	default:
		return done, ErrDataLoss
	}
}

// Scrub rewrites every stored line (refreshing parity and codewords onto
// whatever devices are currently alive) — the recovery action after a
// device replacement. It returns the completion time.
func (ds *DataStore) Scrub(now sim.Time) sim.Time {
	t := now
	lines := make([]uint64, 0, ds.lines.Len())
	ds.lines.ForEach(func(line uint64, _ []byte) { lines = append(lines, line) })
	buf := make([]byte, trace.CacheLineSize)
	for _, line := range lines {
		out := buf
		if _, err := ds.ReadInto(t, line, buf); err != nil {
			// Unrecoverable lines keep their stored content (the caller
			// decided to scrub anyway); refresh the codes.
			out, _ = ds.lines.Get(line)
		}
		t = ds.WriteData(t, line, out)
	}
	return ds.psm.Flush(t)
}

// Lines reports how many lines carry content.
func (ds *DataStore) Lines() int { return ds.lines.Len() }

// RecoveryStats reports byte-level reconstructions served by each code.
func (ds *DataStore) RecoveryStats() (xcc, symbol uint64) {
	return ds.reconstructions, ds.symbolRepairs
}
