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
//
// The copies of each kind live in one slab: one allocation holds every
// Process, one every Core, one every Device and one every WaitQueue, and
// one backing array holds every run queue and waiter list, each capped at
// its own length so that an append moves it out rather than into its
// neighbour.
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
	banks := [][2]*Bank{{nil, nil}}
	bankOf := func(b *Bank) *Bank {
		for _, m := range banks {
			if m[0] == b {
				return m[1]
			}
		}
		c := b.Clone()
		banks = append(banks, [2]*Bank{b, c})
		return c
	}
	out.DRAM = bankOf(k.DRAM)
	out.OCPMEM = bankOf(k.OCPMEM)
	out.Boot = &Bootloader{ocpmem: out.OCPMEM}

	// Processes: value-copy each PCB and remap its bank; wait-queue links
	// are rewired below once every clone exists.
	procs := make([]Process, len(k.Procs))
	out.Procs = make([]*Process, len(k.Procs))
	for i, p := range k.Procs {
		c := &procs[i]
		*c = *p
		c.bank = bankOf(p.bank)
		out.Procs[i] = c
	}
	// procOf maps a source PCB to its copy (nil for nil). PIDs run 1..n in
	// Procs order, so the PID names the slot; a scan covers any other order.
	procOf := func(p *Process) *Process {
		if p == nil {
			return nil
		}
		if i := p.PID - 1; i >= 0 && i < len(k.Procs) && k.Procs[i] == p {
			return &procs[i]
		}
		for i, q := range k.Procs {
			if q == p {
				return &procs[i]
			}
		}
		return nil
	}

	links := 0
	for _, q := range k.queues {
		links += len(q.waiters)
	}
	for _, c := range k.Cores {
		links += len(c.RunQueue)
	}
	backing := make([]*Process, links)
	carve := func(from []*Process) []*Process {
		n := len(from)
		s := backing[:n:n]
		backing = backing[n:]
		for j, p := range from {
			s[j] = procOf(p)
		}
		return s
	}

	queues := make([]WaitQueue, len(k.queues))
	out.queues = make([]*WaitQueue, len(k.queues))
	for i, q := range k.queues {
		nq := &queues[i]
		nq.Name = q.Name
		nq.waiters = carve(q.waiters)
		out.queues[i] = nq
		for j, p := range k.Procs {
			if p.wq == q {
				procs[j].wq = nq
			}
		}
	}

	cores := make([]Core, len(k.Cores))
	out.Cores = make([]*Core, len(k.Cores))
	for i, c := range k.Cores {
		nc := &cores[i]
		*nc = *c
		nc.Current = procOf(c.Current)
		nc.RunQueue = carve(c.RunQueue)
		out.Cores[i] = nc
	}

	devices := make([]Device, len(k.Devices))
	out.Devices = make([]*Device, len(k.Devices))
	for i, d := range k.Devices {
		devices[i] = *d
		out.Devices[i] = &devices[i]
	}
	return out
}
