package kernel

import "fmt"

// ProcState is a task's scheduler state.
type ProcState int

// Task states, mirroring the Linux states SnG manipulates.
const (
	// TaskRunning is on a CPU right now.
	TaskRunning ProcState = iota
	// TaskRunnable waits in a run queue.
	TaskRunnable
	// TaskSleeping waits for an event (interruptible sleep).
	TaskSleeping
	// TaskUninterruptible has been parked by Drive-to-Idle: it cannot be
	// scheduled and cannot take signals.
	TaskUninterruptible
	// TaskStopped is unrecoverable: its state was lost in an outage.
	TaskStopped
)

// String names the state.
func (s ProcState) String() string {
	switch s {
	case TaskRunning:
		return "running"
	case TaskRunnable:
		return "runnable"
	case TaskSleeping:
		return "sleeping"
	case TaskUninterruptible:
		return "uninterruptible"
	case TaskStopped:
		return "stopped"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Process is a PCB (task_struct): identity, scheduler state, and the
// architectural context that Drive-to-Idle saves and Go restores. The
// process's "program" is a deterministic counter walk over its memory, so
// exact resumption is checkable.
type Process struct {
	PID    int
	Name   string
	Kernel bool // kernel thread

	State  ProcState
	CoreID int // owning run queue

	// Architectural state (saved to the PCB on context switch).
	PC      uint64
	Counter uint64
	Regs    [8]uint64

	// SigPending is the TIF_SIGPENDING mask Drive-to-Idle sets on user
	// processes so they trap into the kernel-mode stack.
	SigPending bool

	// Nice is the task's priority (-20..19); VRuntime is its weighted
	// virtual runtime, the fair scheduler's ordering key.
	Nice     int
	VRuntime uint64

	// wq is the wait queue the task sleeps on (nil when awake).
	wq *WaitQueue

	// memBase is where the process's working set lives in its bank.
	memBase uint64
	bank    *Bank
}

// newProcess builds a PCB with its memory base in the given bank.
func newProcess(pid int, name string, kernelThread bool, bank *Bank) *Process {
	return &Process{
		PID:     pid,
		Name:    name,
		Kernel:  kernelThread,
		State:   TaskSleeping,
		PC:      0x10000,
		memBase: uint64(pid) << 20,
		bank:    bank,
	}
}

// Step retires one unit of the process's program: bump the counter, derive
// a register value, and store the result to memory. Only meaningful while
// the process is running.
func (p *Process) Step() {
	p.Counter++
	p.PC += 4
	v := p.Counter * 2654435761
	p.Regs[p.Counter%8] = v
	p.bank.Write(p.memBase+(p.Counter%1024)*8, v)
}

// Checksum digests the architectural state (not memory — banks have their
// own checksums).
func (p *Process) Checksum() uint64 {
	var h uint64 = 1469598103934665603
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	mix(uint64(p.PID))
	mix(p.PC)
	mix(p.Counter)
	for _, r := range p.Regs {
		mix(r)
	}
	return h
}

// SaveContext writes the architectural state into the PCB area of the bank
// (what a context switch does; Drive-to-Idle relies on it).
func (p *Process) SaveContext() {
	base := p.memBase + 0x80000
	p.bank.Write(base, p.PC)
	p.bank.Write(base+8, p.Counter)
	for i, r := range p.Regs {
		p.bank.Write(base+16+uint64(i)*8, r)
	}
}

// RestoreContext reloads the architectural state from the PCB area.
func (p *Process) RestoreContext() {
	base := p.memBase + 0x80000
	p.PC = p.bank.Read(base)
	p.Counter = p.bank.Read(base + 8)
	for i := range p.Regs {
		p.Regs[i] = p.bank.Read(base + 16 + uint64(i)*8)
	}
}
