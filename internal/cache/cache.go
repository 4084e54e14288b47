// Package cache models the per-core L1 caches of the prototype CPU
// (Table I: 16 KB I$/D$): set-associative, write-back, write-allocate, with
// true LRU replacement and a full-flush operation whose cost SnG's
// Auto-Stop pays when it dumps each core's volatile state to OC-PMEM.
package cache

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Backend is the memory service the cache misses to.
type Backend interface {
	// Read returns the completion time of a 64 B line read at addr.
	Read(now sim.Time, addr uint64) sim.Time
	// Write returns the acknowledgement time of a 64 B line write at addr.
	Write(now sim.Time, addr uint64) sim.Time
}

// Config parameterizes the cache geometry and hit timing.
type Config struct {
	SizeBytes  int
	Ways       int
	LineSize   int
	HitLatency sim.Duration
}

// DefaultConfig is the prototype's 16 KB 4-way L1 with a 2-cycle hit at
// 400 MHz (5 ns).
func DefaultConfig() Config {
	return Config{
		SizeBytes:  16 << 10,
		Ways:       4,
		LineSize:   trace.CacheLineSize,
		HitLatency: sim.FromNanoseconds(5),
	}
}

type way struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64 // last-use stamp
}

// Stats counts cache traffic.
type Stats struct {
	ReadHits, ReadMisses   uint64
	WriteHits, WriteMisses uint64
	Writebacks             uint64
	Fills                  uint64
	Flushes                uint64
	FlushedLines           uint64
}

// Cache is one write-back L1.
type Cache struct {
	cfg     Config
	sets    [][]way
	nsets   uint64
	backend Backend
	stamp   uint64
	stats   Stats
}

// New builds a cache over the backend. Geometry must divide evenly.
func New(cfg Config, backend Backend) *Cache {
	if cfg.LineSize <= 0 {
		cfg.LineSize = trace.CacheLineSize
	}
	if cfg.Ways <= 0 {
		cfg.Ways = 1
	}
	lines := cfg.SizeBytes / cfg.LineSize
	if lines <= 0 || lines%cfg.Ways != 0 {
		panic(fmt.Sprintf("cache: bad geometry size=%d line=%d ways=%d",
			cfg.SizeBytes, cfg.LineSize, cfg.Ways))
	}
	nsets := lines / cfg.Ways
	c := &Cache{cfg: cfg, nsets: uint64(nsets), backend: backend}
	c.sets = make([][]way, nsets)
	for i := range c.sets {
		c.sets[i] = make([]way, cfg.Ways)
	}
	return c
}

// Config reports the configuration.
func (c *Cache) Config() Config { return c.cfg }

// Lines reports the total line capacity.
func (c *Cache) Lines() int { return int(c.nsets) * c.cfg.Ways }

func (c *Cache) locate(addr uint64) (setIdx uint64, tag uint64) {
	line := addr / uint64(c.cfg.LineSize)
	return line % c.nsets, line / c.nsets
}

func (c *Cache) lineAddr(setIdx, tag uint64) uint64 {
	return (tag*c.nsets + setIdx) * uint64(c.cfg.LineSize)
}

// Access services one CPU memory reference. It returns the completion time
// and whether the reference hit. Misses fill from the backend (write-
// allocate); dirty victims are written back as posted writes that do not
// extend the miss latency (they ride the write path's asynchrony).
func (c *Cache) Access(now sim.Time, a trace.Access) (done sim.Time, hit bool) {
	setIdx, tag := c.locate(a.Addr)
	set := c.sets[setIdx]
	c.stamp++

	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.stamp
			if a.Op == trace.OpWrite {
				set[i].dirty = true
				c.stats.WriteHits++
			} else {
				c.stats.ReadHits++
			}
			return now.Add(c.cfg.HitLatency), true
		}
	}

	// Miss: pick the LRU victim.
	victim := 0
	for i := 1; i < len(set); i++ {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	if set[victim].valid && set[victim].dirty {
		c.stats.Writebacks++
		c.backend.Write(now, c.lineAddr(setIdx, set[victim].tag))
	}
	c.stats.Fills++
	fillDone := c.backend.Read(now, c.lineAddr(setIdx, tag))
	set[victim] = way{tag: tag, valid: true, dirty: a.Op == trace.OpWrite, lru: c.stamp}
	if a.Op == trace.OpWrite {
		c.stats.WriteMisses++
	} else {
		c.stats.ReadMisses++
	}
	return fillDone.Add(c.cfg.HitLatency), false
}

// DirtyLines reports how many lines would need writing back right now.
func (c *Cache) DirtyLines() int {
	n := 0
	for _, set := range c.sets {
		for i := range set {
			if set[i].valid && set[i].dirty {
				n++
			}
		}
	}
	return n
}

// MarkAllDirty makes every line valid and dirty — the Fig 22 worst case
// ("making all cachelines fully dirty thereby flushing the entire cache").
func (c *Cache) MarkAllDirty() {
	for s := range c.sets {
		for i := range c.sets[s] {
			c.stamp++
			c.sets[s][i] = way{tag: uint64(i), valid: true, dirty: true, lru: c.stamp}
		}
	}
}

// Flush writes every dirty line back and invalidates the cache — the cache
// dump SnG performs per core. It returns the time the last writeback is
// acknowledged.
func (c *Cache) Flush(now sim.Time) sim.Time {
	c.stats.Flushes++
	end := now
	at := now
	for s := range c.sets {
		for i := range c.sets[s] {
			w := &c.sets[s][i]
			if w.valid && w.dirty {
				c.stats.FlushedLines++
				ack := c.backend.Write(at, c.lineAddr(uint64(s), w.tag))
				// Writebacks issue back-to-back; the backend's own
				// queueing shows up through the acks.
				end = sim.Max(end, ack)
			}
			*w = way{}
		}
	}
	return end
}

// Invalidate drops all lines without writing anything back (cold-boot
// path).
func (c *Cache) Invalidate() {
	for s := range c.sets {
		for i := range c.sets[s] {
			c.sets[s][i] = way{}
		}
	}
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// HitRate reports overall hit ratio.
func (s Stats) HitRate() float64 {
	total := s.ReadHits + s.ReadMisses + s.WriteHits + s.WriteMisses
	if total == 0 {
		return 0
	}
	return float64(s.ReadHits+s.WriteHits) / float64(total)
}
