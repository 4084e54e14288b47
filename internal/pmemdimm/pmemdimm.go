// Package pmemdimm emulates a conventional (Optane-style) PMEM DIMM as
// reverse-engineered in Figure 2a: a load-store queue that reorders and
// write-combines up to the 256 B PRAM granule, a two-level inclusive
// SRAM+DRAM cache in front of the media, 4 KB DRAM-side buffering, and a
// firmware that performs device-level address translation.
//
// The point of this model is Figure 2b: the multi-buffer lookup and
// firmware path make DIMM-level writes *faster* than bare PRAM (they hit
// SRAM/DRAM), while DIMM-level reads become both slower (~3×) and
// non-deterministic, because the freshest copy may live in SRAM, DRAM, or
// the media, and each level costs a lookup.
package pmemdimm

import (
	"repro/internal/sim"
)

// Block granularities (Section II-A).
const (
	// MediaBlock is the physical access granularity of the DIMM's PRAM.
	MediaBlock = 256
	// BufferBlock is the DRAM-side buffering granule.
	BufferBlock = 4096
)

// Config parameterizes the DIMM emulation.
type Config struct {
	// SRAMBlocks is the capacity of the 256 B-block SRAM tier.
	SRAMBlocks int
	// DRAMBlocks is the capacity of the 4 KB-block DRAM tier.
	DRAMBlocks int

	LSQLatency      sim.Duration // queue + reorder stage
	SRAMLookup      sim.Duration // tag check + read of the SRAM tier
	DRAMLookup      sim.Duration // tag check + read of the DRAM tier
	FirmwareBase    sim.Duration // translation + scheduling by firmware
	FirmwareJitter  sim.Duration // stddev of firmware latency noise
	MediaRead       sim.Duration // one 256 B media read (all granules)
	MediaWrite      sim.Duration // one 256 B media program
	WriteCombineAck sim.Duration // ack for a combined (absorbed) write

	Seed uint64
}

// DefaultConfig produces the Figure 2b shape against a 55 ns bare-PRAM
// read: DIMM-level reads average ~3× bare PRAM with heavy variance, and
// DIMM-level writes land well under bare-PRAM writes.
func DefaultConfig() Config {
	return Config{
		SRAMBlocks:      64,
		DRAMBlocks:      4096,
		LSQLatency:      sim.FromNanoseconds(10),
		SRAMLookup:      sim.FromNanoseconds(20),
		DRAMLookup:      sim.FromNanoseconds(60),
		FirmwareBase:    sim.FromNanoseconds(40),
		FirmwareJitter:  sim.FromNanoseconds(25),
		MediaRead:       sim.FromNanoseconds(110),
		MediaWrite:      sim.FromNanoseconds(300),
		WriteCombineAck: sim.FromNanoseconds(15),
		Seed:            1,
	}
}

// lru is a tiny ordered map used for both cache tiers. Nodes live in a
// fixed arena linked by index, so nothing allocates after construction:
// the evicted node is reused in place for the incoming key.
//
// The key index is a fixed bucket array sized once at construction (a
// power of two at least twice the capacity, so chains stay short), picked
// by the top bits of hash64(key). Each bucket heads a doubly linked chain
// threaded through the nodes' hprev/hnext links. Both the arena and the
// bucket array are flat slices, so a clone is two copies.
//
// Each access walks one chain once. find returns the key's bucket and its
// node on a hit, or -1 on a miss; refresh and markDirty act on the node,
// and add links the new key at the head of the bucket find returned. An
// eviction unlinks the victim from the recency list and from its chain in
// O(1); it hashes the victim's key only when the victim heads its chain.
//
// Dirtiness is epoch-stamped rather than stored as a bool: a node is dirty
// iff its dirtyStamp is newer than the tier's last flush epoch. Clearing
// every dirty bit (Flush) is then a single epoch increment, and the tier
// maintains a running dirty count so Flush never walks the arena.
type lru struct {
	nodes []lruNode // fixed arena, one node per block of capacity
	n     int32     // nodes in use; nodes[n:] are free
	heads []int32   // first node of each bucket's chain, -1 if empty
	shift uint      // 64 - log2(len(heads))
	head  int32     // most recent, -1 if empty
	tail  int32     // least recent, -1 if empty

	stamp uint64 // flush epoch; node dirty iff dirtyStamp > stamp
	dirty int    // live dirty nodes
}

type lruNode struct {
	key          uint64
	dirtyStamp   uint64
	hprev, hnext int32 // bucket chain, -1 at either end
	prev, next   int32 // recency list, -1 at either end
}

func newLRU(capacity int) *lru {
	size, shift := 2, uint(63)
	for size < 2*capacity {
		size *= 2
		shift--
	}
	heads := make([]int32, size)
	for b := range heads {
		heads[b] = -1
	}
	return &lru{
		nodes: make([]lruNode, capacity),
		heads: heads,
		shift: shift,
		head:  -1,
		tail:  -1,
	}
}

// hash64 is linetab's multiplicative (Fibonacci) hash; the top bits pick
// the bucket.
//
//lightpc:zeroalloc
func hash64(x uint64) uint64 { return x * 0x9E3779B97F4A7C15 }

// find walks key's chain once. It returns key's bucket, and the node
// holding key on a hit or -1 on a miss.
//
//lightpc:zeroalloc
func (l *lru) find(key uint64) (uint64, int32) {
	b := hash64(key) >> l.shift
	i := l.heads[b]
	for i >= 0 && l.nodes[i].key != key {
		i = l.nodes[i].hnext
	}
	return b, i
}

//lightpc:zeroalloc
func (l *lru) unlink(i int32) {
	n := &l.nodes[i]
	if n.prev >= 0 {
		l.nodes[n.prev].next = n.next
	} else {
		l.head = n.next
	}
	if n.next >= 0 {
		l.nodes[n.next].prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = -1, -1
}

// unchain takes node i out of its bucket's chain. Only a chain's first
// node has no predecessor to relink, so only then is the key hashed.
//
//lightpc:zeroalloc
func (l *lru) unchain(i int32) {
	n := &l.nodes[i]
	if n.hprev >= 0 {
		l.nodes[n.hprev].hnext = n.hnext
	} else {
		l.heads[hash64(n.key)>>l.shift] = n.hnext
	}
	if n.hnext >= 0 {
		l.nodes[n.hnext].hprev = n.hprev
	}
}

//lightpc:zeroalloc
func (l *lru) pushFront(i int32) {
	n := &l.nodes[i]
	n.prev = -1
	n.next = l.head
	if l.head >= 0 {
		l.nodes[l.head].prev = i
	}
	l.head = i
	if l.tail < 0 {
		l.tail = i
	}
}

//lightpc:zeroalloc
func (l *lru) isDirty(i int32) bool { return l.nodes[i].dirtyStamp > l.stamp }

// markDirty flags the node dirty in the current epoch.
//
//lightpc:zeroalloc
func (l *lru) markDirty(i int32) {
	if n := &l.nodes[i]; n.dirtyStamp <= l.stamp {
		n.dirtyStamp = l.stamp + 1
		l.dirty++
	}
}

// refresh makes node i the most recent.
//
//lightpc:zeroalloc
func (l *lru) refresh(i int32) {
	if i != l.head {
		l.unlink(i)
		l.pushFront(i)
	}
}

// add inserts key, which find reported absent from bucket b, reporting
// whether a block was evicted to make room and whether that block was
// dirty. A full tier reuses its LRU victim's node, unlinked from the
// recency list and from its chain first; the new key heads bucket b's
// chain.
//
//lightpc:zeroalloc
func (l *lru) add(b, key uint64, dirty bool) (evictedDirty, evicted bool) {
	var i int32
	if int(l.n) == len(l.nodes) {
		i = l.tail
		evicted = true
		evictedDirty = l.isDirty(i)
		if evictedDirty {
			l.dirty--
		}
		l.unlink(i)
		l.unchain(i)
	} else {
		i = l.n
		l.n++
	}
	h := l.heads[b]
	if h >= 0 {
		l.nodes[h].hprev = i
	}
	l.heads[b] = i
	l.nodes[i] = lruNode{key: key, hprev: -1, hnext: h, prev: -1, next: -1}
	if dirty {
		l.markDirty(i)
	}
	l.pushFront(i)
	return evictedDirty, evicted
}

// flushAll clears every dirty bit in O(1) by advancing the epoch and
// returns how many nodes were dirty.
func (l *lru) flushAll() int {
	n := l.dirty
	l.stamp++
	l.dirty = 0
	return n
}

func (l *lru) len() int { return int(l.n) }

// Stats counts the DIMM's internal traffic.
type Stats struct {
	Reads, Writes             uint64
	SRAMHits, DRAMHits        uint64
	MediaReads, MediaWrites   uint64
	CombinedWrites, Evictions uint64
}

// DIMM is the emulated PMEM module.
type DIMM struct {
	cfg  Config
	rng  *sim.RNG
	sram *lru // 256 B blocks
	dram *lru // 4 KB blocks

	busyUntil sim.Time // LSQ head-of-line serialization
	stats     Stats
}

// New builds the DIMM.
func New(cfg Config) *DIMM {
	if cfg.SRAMBlocks <= 0 {
		cfg.SRAMBlocks = 64
	}
	if cfg.DRAMBlocks <= 0 {
		cfg.DRAMBlocks = 4096
	}
	return &DIMM{
		cfg:  cfg,
		rng:  sim.NewRNG(cfg.Seed),
		sram: newLRU(cfg.SRAMBlocks),
		dram: newLRU(cfg.DRAMBlocks),
	}
}

// Config reports the configuration.
func (d *DIMM) Config() Config { return d.cfg }

//lightpc:zeroalloc
func (d *DIMM) firmware() sim.Duration {
	j := d.rng.Norm(float64(d.cfg.FirmwareBase), float64(d.cfg.FirmwareJitter))
	if j < float64(d.cfg.FirmwareBase)/2 {
		j = float64(d.cfg.FirmwareBase) / 2
	}
	return sim.Duration(j)
}

// evictDirty accounts an eviction: every one counts in Evictions, and a
// dirty one costs a media program (MediaWrites). The program drains in the
// background: it occupies neither the requester's critical path nor the
// LSQ, whose occupancy Read and Write set from their own lookups.
//
//lightpc:zeroalloc
func (d *DIMM) evictDirty(dirty, evicted bool) {
	if !evicted {
		return
	}
	d.stats.Evictions++
	if dirty {
		d.stats.MediaWrites++
	}
}

// Read services a 64 B read and returns its completion time. The latency
// depends on which tier holds the freshest copy — the source of the
// non-determinism in Figure 2b.
//
//lightpc:zeroalloc
func (d *DIMM) Read(now sim.Time, addr uint64) sim.Time {
	d.stats.Reads++
	start := sim.Max(now, d.busyUntil)
	lat := d.cfg.LSQLatency + d.cfg.SRAMLookup

	mblock := addr / MediaBlock
	bblock := addr / BufferBlock
	if mb, mi := d.sram.find(mblock); mi >= 0 {
		d.stats.SRAMHits++
		d.sram.refresh(mi)
	} else if bb, bi := d.dram.find(bblock); bi >= 0 {
		// SRAM miss, DRAM hit: pay the second lookup and refill SRAM
		// (inclusive).
		d.stats.DRAMHits++
		d.dram.refresh(bi)
		lat += d.cfg.DRAMLookup
		d.evictDirty(d.sram.add(mb, mblock, false))
	} else {
		// Miss everywhere: firmware translation + media read, filling
		// both tiers.
		lat += d.cfg.DRAMLookup + d.firmware() + d.cfg.MediaRead
		d.stats.MediaReads++
		d.evictDirty(d.dram.add(bb, bblock, false))
		d.evictDirty(d.sram.add(mb, mblock, false))
	}
	d.busyUntil = start.Add(d.cfg.LSQLatency) // LSQ frees after issue
	return start.Add(lat)
}

// Write services a 64 B write. Writes are posted: the LSQ combines
// sub-granule writes into the SRAM's 256 B read-modify buffers and the
// dirty state drains to the media in the background, so the
// acknowledgement is quick — faster than bare PRAM and often faster than
// DRAM (Figure 2b). The cost resurfaces as LSQ occupancy that delays
// subsequent requests: an allocating write holds the LSQ for its SRAM
// lookup, plus the DRAM lookup and firmware when the DRAM tier misses.
// The media programs of the dirty blocks it evicts are not charged to the
// LSQ (see evictDirty).
//
//lightpc:zeroalloc
func (d *DIMM) Write(now sim.Time, addr uint64) sim.Time {
	d.stats.Writes++
	start := sim.Max(now, d.busyUntil)
	lat := d.cfg.LSQLatency + d.cfg.WriteCombineAck

	mblock := addr / MediaBlock
	bblock := addr / BufferBlock
	if mb, mi := d.sram.find(mblock); mi >= 0 {
		// Combined into the open 256 B block.
		d.stats.CombinedWrites++
		d.sram.refresh(mi)
		d.sram.markDirty(mi)
	} else {
		// Allocate in SRAM: the ack pays the allocation lookup; the
		// read-modify and DRAM-tier bookkeeping happen off the ack path
		// but occupy the device.
		lat += d.cfg.SRAMLookup
		occupancy := d.cfg.SRAMLookup
		if bb, bi := d.dram.find(bblock); bi >= 0 {
			d.dram.refresh(bi)
			d.dram.markDirty(bi)
		} else {
			occupancy += d.cfg.DRAMLookup + d.firmware()
			d.evictDirty(d.dram.add(bb, bblock, true))
		}
		d.evictDirty(d.sram.add(mb, mblock, true))
		d.busyUntil = start.Add(occupancy)
	}
	done := start.Add(lat)
	if d.busyUntil < start.Add(d.cfg.LSQLatency) {
		d.busyUntil = start.Add(d.cfg.LSQLatency)
	}
	return done
}

// Flush writes every dirty block back to the media — the device-side work
// behind pmem_persist/eADR-style synchronization. It returns the completion
// time. Both tiers clear in O(1) via their flush epochs; only the DRAM
// tier's dirty 4 KB blocks cost media programs (the SRAM tier is inclusive,
// so its lines land inside those blocks).
func (d *DIMM) Flush(now sim.Time) sim.Time {
	d.sram.flushAll()
	dirty := d.dram.flushAll()
	// Dirty 4 KB blocks stream to the media; overlap factor 4 models the
	// DIMM's internal banking.
	lat := sim.Duration(dirty) * d.cfg.MediaWrite / 4
	d.stats.MediaWrites += uint64(dirty)
	done := sim.Max(now, d.busyUntil).Add(lat)
	d.busyUntil = done
	return done
}

// Stats returns a copy of the counters.
func (d *DIMM) Stats() Stats { return d.stats }
