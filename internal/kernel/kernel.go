// Package kernel is the mini operating system PecOS operates on: process
// control blocks with saveable architectural state, per-core run queues
// under a CFS-style fair scheduler with wait queues, a dpm-ordered device
// list with the standard power-management callback ladder, volatile (DRAM)
// and persistent (OC-PMEM) memory banks, hibernation images, and a
// bootloader with its control block (BCB).
//
// It deliberately exposes the exact state Stop-and-Go manipulates —
// TIF_SIGPENDING, TASK_UNINTERRUPTIBLE, run-queue membership, dpm_list
// order, kernel task pointers, machine-mode registers — so the sng package
// is a faithful transcription of Section IV rather than an abstraction of
// it.
package kernel

import (
	"fmt"

	"repro/internal/sim"
)

// Config sizes the simulated system.
type Config struct {
	Cores       int
	UserProcs   int
	KernelProcs int
	Devices     int
	// SleepFraction is the share of processes asleep at any instant.
	SleepFraction float64
	// PersistentProcs places process/kernel memory in OC-PMEM (LightPC);
	// otherwise everything lives in DRAM (LegacyPC).
	PersistentProcs bool
	// CacheLinesPerCore sizes each core's L1 for flush accounting
	// (16 KB / 64 B = 256).
	CacheLinesPerCore int
	Seed              uint64
}

// DefaultConfig is the paper's busy system: 8 cores, 72 user + 48 kernel
// processes, all default driver packages (Section III-B).
func DefaultConfig() Config {
	return Config{
		Cores:             8,
		UserProcs:         72,
		KernelProcs:       48,
		Devices:           250,
		SleepFraction:     0.4,
		PersistentProcs:   true,
		CacheLinesPerCore: 256,
		Seed:              1,
	}
}

// IdleConfig is the paper's idle system: kernel threads plus shell only.
func IdleConfig() Config {
	cfg := DefaultConfig()
	cfg.UserProcs = 6
	cfg.KernelProcs = 44
	cfg.SleepFraction = 0.85
	return cfg
}

// Core is one hardware thread: its run queue, the task pointers Go uses to
// bring it back, machine-mode registers invisible to the kernel, and a
// dirty-line count standing in for its L1 state.
type Core struct {
	ID       int
	Online   bool
	Idle     bool
	Current  *Process
	RunQueue []*Process

	// KTaskPtr/KStackPtr are __cpu_up_task_pointer/__cpu_up_stack_pointer:
	// where a waking core looks for work (Section IV-B).
	KTaskPtr  uint64
	KStackPtr uint64

	// MRegs are machine-mode registers (IPI, power-down, security) that
	// only the bootloader may access.
	MRegs [4]uint64

	// DirtyLines approximates the core's dirty L1 content for flush-cost
	// accounting.
	DirtyLines int
}

// Kernel is the live system image.
type Kernel struct {
	cfg Config
	rng *sim.RNG

	Procs   []*Process
	Cores   []*Core
	Devices []*Device

	DRAM   *Bank // nil when PersistentProcs
	OCPMEM *Bank

	queues []*WaitQueue

	Boot *Bootloader

	// PersistFlag is the atomic system-wide flag Drive-to-Idle raises.
	PersistFlag bool

	// DumpedBytes / RestoredBytes tally the system-image traffic moved by
	// Hibernate and ResumeFromHibernate (observability counters).
	DumpedBytes   uint64
	RestoredBytes uint64

	nextPID int
}

// New constructs and populates the system: processes spread over cores with
// the configured sleep mix, devices on the dpm list, and the memory banks.
func New(cfg Config) *Kernel {
	return NewWithBank(cfg, NewBank("ocpmem", true))
}

// NewWithBank constructs the system over an existing persistent bank — the
// boot path when power returns: the silicon is re-initialized but OC-PMEM
// still holds whatever the previous epoch persisted (BCB, DCBs, pools,
// checkpoints, hibernation images).
func NewWithBank(cfg Config, ocpmem *Bank) *Kernel {
	if ocpmem == nil {
		ocpmem = NewBank("ocpmem", true)
	}
	if !ocpmem.Persistent() {
		panic("kernel: OC-PMEM bank must be persistent")
	}
	if cfg.Cores <= 0 {
		cfg.Cores = 8
	}
	if cfg.CacheLinesPerCore <= 0 {
		cfg.CacheLinesPerCore = 256
	}
	k := &Kernel{
		cfg:    cfg,
		rng:    sim.NewRNG(cfg.Seed),
		OCPMEM: ocpmem,
	}
	procBank := k.OCPMEM
	if !cfg.PersistentProcs {
		k.DRAM = NewBank("dram", false)
		procBank = k.DRAM
	}
	k.Boot = NewBootloader(k.OCPMEM)
	// Each kind of object comes from one slab, as in Clone.
	queues := make([]WaitQueue, len(queueNames))
	k.queues = make([]*WaitQueue, len(queueNames))
	for i, name := range queueNames {
		queues[i].Name = name
		k.queues[i] = &queues[i]
	}

	cores := make([]Core, cfg.Cores)
	k.Cores = make([]*Core, cfg.Cores)
	for i := range cores {
		c := &cores[i]
		c.ID, c.Online = i, true
		for j := range c.MRegs {
			c.MRegs[j] = k.rng.Uint64()
		}
		c.DirtyLines = k.rng.Intn(cfg.CacheLinesPerCore + 1)
		k.Cores[i] = c
	}
	procs := make([]Process, max(cfg.UserProcs, 0)+max(cfg.KernelProcs, 0))
	k.Procs = make([]*Process, 0, len(procs))
	for i := 0; i < cfg.UserProcs; i++ {
		p := k.spawn(&procs[len(k.Procs)], userNames.at(i), false, procBank)
		p.Nice = k.rng.Intn(16) - 5 // -5..10
	}
	for i := 0; i < cfg.KernelProcs; i++ {
		p := k.spawn(&procs[len(k.Procs)], kthreadNames.at(i), true, procBank)
		p.Nice = -10
	}
	// Distribute: some asleep on wait queues, the rest runnable across
	// cores; one running per core.
	for i, p := range k.Procs {
		if k.rng.Float64() < cfg.SleepFraction {
			p.State = TaskSleeping
			p.CoreID = -1
			wq := k.queues[k.rng.Intn(len(k.queues))]
			p.wq = wq
			wq.waiters = append(wq.waiters, p)
			continue
		}
		core := k.Cores[i%cfg.Cores]
		p.State = TaskRunnable
		p.CoreID = core.ID
		core.RunQueue = append(core.RunQueue, p)
	}
	for _, c := range k.Cores {
		k.scheduleNext(c)
	}
	devices := make([]Device, max(cfg.Devices, 0))
	k.Devices = make([]*Device, len(devices))
	for i := range devices {
		devices[i].init(i, k.rng)
		k.Devices[i] = &devices[i]
	}
	return k
}

// queueNames are the kernel's wait queues, in order.
var queueNames = [...]string{"io", "timer", "net", "futex"}

// names is one kind of process or device name, formatted at start-up for
// the first nameCap indexes and shared by every boot.
type names struct {
	format string
	list   []string
}

// nameCap covers every configured system (the busy default has 250
// devices); a higher index is formatted when it is needed.
const nameCap = 256

var (
	userNames    = newNames("user%02d")
	kthreadNames = newNames("kthread%02d")
	deviceNames  = newNames("dev%03d")
)

func newNames(format string) names {
	n := names{format: format, list: make([]string, nameCap)}
	for i := range n.list {
		n.list[i] = fmt.Sprintf(format, i)
	}
	return n
}

// at returns the name for index i.
func (n *names) at(i int) string {
	if i < len(n.list) {
		return n.list[i]
	}
	return fmt.Sprintf(n.format, i)
}

// Config reports the system configuration.
func (k *Kernel) Config() Config { return k.cfg }

// ProcBank reports the bank process memory lives in.
func (k *Kernel) ProcBank() *Bank {
	if k.DRAM != nil {
		return k.DRAM
	}
	return k.OCPMEM
}

// spawn fills p as the next PCB and appends it to Procs.
func (k *Kernel) spawn(p *Process, name string, kernelThread bool, bank *Bank) *Process {
	k.nextPID++
	*p = *newProcess(k.nextPID, name, kernelThread, bank)
	k.Procs = append(k.Procs, p)
	return p
}

// scheduleNext installs the fair-scheduler pick (min vruntime) from the
// core's queue as its current process.
func (k *Kernel) scheduleNext(c *Core) {
	if !c.Online {
		return
	}
	if c.Current != nil {
		c.Current.SaveContext()
		c.Current.State = TaskRunnable
		c.RunQueue = append(c.RunQueue, c.Current)
		c.Current = nil
	}
	if p := k.pickNext(c); p != nil {
		p.RestoreContext()
		p.State = TaskRunning
		p.CoreID = c.ID
		c.Current = p
		c.Idle = false
		return
	}
	c.Current = nil
	c.Idle = true
}

// Tick advances the live system: every online core retires `steps` units of
// its current task, then context-switches; a little sleep/wake churn keeps
// the mix realistic. (This is the workload running *before* a power event.)
func (k *Kernel) Tick(steps int) {
	for _, c := range k.Cores {
		if !c.Online {
			continue
		}
		if c.Current != nil {
			for s := 0; s < steps; s++ {
				c.Current.Step()
			}
			c.Current.chargeVruntime(steps)
			c.DirtyLines = min(k.cfg.CacheLinesPerCore, c.DirtyLines+steps/4)
		}
		k.scheduleNext(c)
	}
	// Churn: occasionally a runnable task blocks on a wait queue, and
	// events wake waiters.
	for _, p := range k.Procs {
		if p.State == TaskRunnable && k.rng.Float64() < 0.02 {
			k.WaitOn(p, k.queues[k.rng.Intn(len(k.queues))])
		}
	}
	for _, wq := range k.queues {
		if wq.Waiters() > 0 && k.rng.Float64() < 0.08 {
			k.WakeOne(wq, k.rng.Intn(len(k.Cores)))
		}
	}
}

// Sleepers returns processes in interruptible sleep (the set Drive-to-Idle
// must wake and park).
func (k *Kernel) Sleepers() []*Process {
	var out []*Process
	for _, p := range k.Procs {
		if p.State == TaskSleeping {
			out = append(out, p)
		}
	}
	return out
}

// Alive returns every non-stopped process; the flat PCB list stands in for
// the paper's traversal from init_task.
func (k *Kernel) Alive() []*Process {
	var out []*Process
	for _, p := range k.Procs {
		if p.State != TaskStopped {
			out = append(out, p)
		}
	}
	return out
}

// WakeToCore moves a sleeping process onto the given core's run queue,
// removing it from whatever wait queue it slept on (Drive-to-Idle's forced
// wake does not wait for the event).
func (k *Kernel) WakeToCore(p *Process, coreID int) {
	if p.State != TaskSleeping {
		return
	}
	if p.wq != nil {
		p.wq.remove(p)
		p.wq = nil
	}
	p.VRuntime = k.minVruntime(coreID)
	p.State = TaskRunnable
	p.CoreID = coreID
	k.Cores[coreID].RunQueue = append(k.Cores[coreID].RunQueue, p)
}

func (k *Kernel) removeFromRunQueue(p *Process) {
	if p.CoreID < 0 || p.CoreID >= len(k.Cores) {
		return
	}
	q := k.Cores[p.CoreID].RunQueue
	for i, q0 := range q {
		if q0 == p {
			k.Cores[p.CoreID].RunQueue = append(q[:i], q[i+1:]...)
			return
		}
	}
}

// Park context-switches the process out, removes it from its run queue, and
// marks it TASK_UNINTERRUPTIBLE so it "cannot further have a change"
// (Section IV-A).
func (k *Kernel) Park(p *Process) {
	if p.State == TaskRunning {
		c := k.Cores[p.CoreID]
		if c.Current == p {
			c.Current = nil
		}
	}
	k.removeFromRunQueue(p)
	if p.wq != nil {
		p.wq.remove(p)
		p.wq = nil
	}
	p.SaveContext()
	p.State = TaskUninterruptible
}

// InstallIdle replaces the core's current task with the idle task and
// points its kernel task pointers at the idle context (Drive-to-Idle's last
// act per core).
func (k *Kernel) InstallIdle(c *Core) {
	if c.Current != nil {
		k.Park(c.Current)
	}
	c.Idle = true
	c.KTaskPtr = 0xCAFE0000 + uint64(c.ID)
	c.KStackPtr = 0xBEEF0000 + uint64(c.ID)
}

// Unpark flips a parked task back to TASK_NORMAL (runnable) on its recorded
// core — Go's wait-queue walk.
func (k *Kernel) Unpark(p *Process) {
	if p.State != TaskUninterruptible {
		return
	}
	if p.CoreID < 0 || p.CoreID >= len(k.Cores) {
		p.CoreID = 0
	}
	p.State = TaskRunnable
	k.Cores[p.CoreID].RunQueue = append(k.Cores[p.CoreID].RunQueue, p)
}

// ScheduleAll installs a current task on every online core that has none —
// the first scheduler pass after Go.
func (k *Kernel) ScheduleAll() {
	for _, c := range k.Cores {
		if c.Online && c.Current == nil {
			k.scheduleNext(c)
		}
	}
}

// RunnableCount reports tasks still schedulable (running or queued) — zero
// is the Drive-to-Idle postcondition.
func (k *Kernel) RunnableCount() int {
	n := 0
	for _, p := range k.Procs {
		if p.State == TaskRunning || p.State == TaskRunnable {
			n++
		}
	}
	return n
}

// ProcsChecksum digests every PCB's architectural state.
func (k *Kernel) ProcsChecksum() uint64 {
	var h uint64 = 14695981039346656037
	for _, p := range k.Procs {
		h ^= p.Checksum()
		h *= 1099511628211
	}
	return h
}

// PowerLoss models the rails dropping: every core goes offline losing its
// register state, volatile banks are wiped, live device registers vanish,
// and every process's live architectural state disappears — only what was
// saved into a persistent bank can come back.
func (k *Kernel) PowerLoss() {
	for _, c := range k.Cores {
		c.Online = false
		c.Idle = false
		c.Current = nil
		// Emptied, not dropped: Go's Unpark refills it in place.
		c.RunQueue = c.RunQueue[:0]
		for j := range c.MRegs {
			c.MRegs[j] = 0
		}
		c.DirtyLines = 0
	}
	if k.DRAM != nil {
		k.DRAM.PowerLoss()
	}
	for _, d := range k.Devices {
		if d.State != DevOff {
			// A device that was never fully suspended loses its context.
			d.Context = 0
			d.MMIO = 0
			d.State = DevActive
		}
	}
	procBankPersistent := k.ProcBank().Persistent()
	if !procBankPersistent {
		// Kernel data structures (wait queues included) lived in DRAM.
		for _, wq := range k.queues {
			wq.waiters = nil
		}
	}
	for _, p := range k.Procs {
		// Live registers are always lost.
		p.PC, p.Counter = 0, 0
		p.Regs = [8]uint64{}
		if !procBankPersistent {
			// The PCB itself lived in DRAM: the task is simply gone
			// (LegacyPC needs checkpoint images to get it back).
			p.State = TaskStopped
			p.wq = nil
			continue
		}
		if p.State == TaskRunning || p.State == TaskRunnable {
			// Never parked: its saved context predates the EP-cut, so
			// the task cannot be resumed consistently.
			p.State = TaskStopped
		}
	}
	k.PersistFlag = false
}
