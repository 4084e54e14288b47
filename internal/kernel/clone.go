package kernel

import "slices"

// Clone returns an independent copy of the live system image. Every object
// in the kernel's pointer graph — processes, cores, devices, wait queues,
// banks, page tables, TLBs — is duplicated, and the aliases among them (a
// Process appears in Procs, possibly a Core's Current or RunQueue, and
// possibly a WaitQueue's waiters; a bank is shared by the kernel and every
// PCB) are remapped so each alias in the clone points at the clone's
// object. Banks and page tables copy only their page directories: their
// word pages stay shared until either side writes one (see Bank). Bank
// write observers are not carried over (Bank.Clone drops them): an observer
// belongs to whoever installed it on the source.
func (k *Kernel) Clone() *Kernel {
	out := &Kernel{
		cfg:           k.cfg,
		rng:           k.rng.Clone(),
		PersistFlag:   k.PersistFlag,
		DumpedBytes:   k.DumpedBytes,
		RestoredBytes: k.RestoredBytes,
		nextPID:       k.nextPID,
	}

	// Banks first: the kernel's two plus whatever a PCB points at (after a
	// cold boot a process bank can differ from both), identity-remapped so
	// shared banks stay shared in the clone.
	banks := map[*Bank]*Bank{nil: nil}
	bankOf := func(b *Bank) *Bank {
		if c, ok := banks[b]; ok {
			return c
		}
		c := b.Clone()
		banks[b] = c
		return c
	}
	out.DRAM = bankOf(k.DRAM)
	out.OCPMEM = bankOf(k.OCPMEM)
	out.Boot = &Bootloader{ocpmem: out.OCPMEM}

	// Processes: value-copy each PCB, clone its address space, remap its
	// bank; tree and wait-queue links are rewired below once every clone
	// exists.
	procs := map[*Process]*Process{nil: nil}
	out.Procs = make([]*Process, len(k.Procs))
	for i, p := range k.Procs {
		c := new(Process)
		*c = *p
		c.PageTable = p.PageTable.clone()
		c.bank = bankOf(p.bank)
		out.Procs[i] = c
		procs[p] = c
	}
	for i, p := range k.Procs {
		out.Procs[i].Parent = procs[p.Parent]
	}

	out.queues = make([]*WaitQueue, len(k.queues))
	for i, q := range k.queues {
		nq := &WaitQueue{Name: q.Name}
		nq.waiters = make([]*Process, len(q.waiters))
		for j, w := range q.waiters {
			nq.waiters[j] = procs[w]
		}
		out.queues[i] = nq
		for _, p := range k.Procs {
			if p.wq == q {
				procs[p].wq = nq
			}
		}
	}

	out.Cores = make([]*Core, len(k.Cores))
	for i, c := range k.Cores {
		nc := new(Core)
		*nc = *c
		nc.Current = procs[c.Current]
		nc.RunQueue = make([]*Process, len(c.RunQueue))
		for j, p := range c.RunQueue {
			nc.RunQueue[j] = procs[p]
		}
		nc.TLB = c.TLB.clone()
		out.Cores[i] = nc
	}

	out.Devices = make([]*Device, len(k.Devices))
	for i, d := range k.Devices {
		nd := new(Device)
		*nd = *d
		out.Devices[i] = nd
	}
	return out
}

// clone copies an address space (nil until AttachVM); its translation
// pages are shared copy-on-write like a bank's.
func (pt *PageTable) clone() *PageTable {
	if pt == nil {
		return nil
	}
	return &PageTable{Root: pt.Root, entries: pt.entries.Clone()}
}

// clone deep-copies a translation cache (nil until AttachVM).
func (t *TLB) clone() *TLB {
	if t == nil {
		return nil
	}
	entries := make(map[tlbKey]uint64, len(t.entries))
	for k, v := range t.entries {
		entries[k] = v
	}
	return &TLB{
		capacity: t.capacity,
		entries:  entries,
		order:    slices.Clone(t.order),
		hits:     t.hits,
		misses:   t.misses,
		flushes:  t.flushes,
	}
}
