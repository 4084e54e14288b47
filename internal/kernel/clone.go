package kernel

// Clone returns an independent copy of the live system image. Every object
// in the kernel's pointer graph — processes, cores, devices, wait queues,
// banks — is duplicated, and the aliases among them (a Process appears in
// Procs, possibly a Core's Current or RunQueue, and possibly a WaitQueue's
// waiters; a bank is shared by the kernel and every PCB) are remapped so
// each alias in the clone points at the clone's object. Banks copy only
// their page directories: their word pages stay shared until either side
// writes one (see Bank). Bank write observers are not carried over
// (Bank.Clone drops them): an observer belongs to whoever installed it on
// the source.
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

	// Processes: value-copy each PCB and remap its bank; wait-queue links
	// are rewired below once every clone exists.
	procs := map[*Process]*Process{nil: nil}
	out.Procs = make([]*Process, len(k.Procs))
	for i, p := range k.Procs {
		c := new(Process)
		*c = *p
		c.bank = bankOf(p.bank)
		out.Procs[i] = c
		procs[p] = c
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
