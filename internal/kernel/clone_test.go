package kernel

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/snapshot"
)

// TestCloneCompleteness pins every kernel struct's field list against
// Kernel.Clone and its helpers: a new mutable field fails here until the
// clone handles it. (Core, Process and Device are value-copied with their
// reference fields remapped afterwards; Bank.Clone deliberately drops the
// observer; Bootloader is rebuilt pointing at the cloned OCPMEM.)
func TestCloneCompleteness(t *testing.T) {
	snapshot.CheckCovered(t, Kernel{},
		"cfg", "rng", "Procs", "Cores", "Devices", "DRAM", "OCPMEM",
		"queues", "Boot", "PersistFlag", "DumpedBytes", "RestoredBytes", "nextPID")
	snapshot.CheckCovered(t, Core{},
		"ID", "Online", "Idle", "Current", "RunQueue",
		"KTaskPtr", "KStackPtr", "MRegs", "DirtyLines")
	snapshot.CheckCovered(t, Process{},
		"PID", "Name", "Kernel", "State", "CoreID", "PC", "Counter", "Regs",
		"SigPending", "Nice", "VRuntime", "wq", "memBase", "bank")
	snapshot.CheckCovered(t, WaitQueue{}, "Name", "waiters")
	snapshot.CheckCovered(t, Device{},
		"Name", "Index", "PrepareCost", "SuspendCost", "NoIrqCost",
		"ResumeCost", "State", "Context", "Peripheral", "MMIO", "dcbAddr")
	snapshot.CheckCovered(t, Bank{}, "name", "persistent", "words", "observer")
	snapshot.CheckCovered(t, Bootloader{}, "ocpmem")
}

// TestKernelCloneIndependence boots a kernel, clones it, and checks the
// clone's aliases were remapped: banks, processes, run queues and wait
// queues all point into the clone, and writes on either side stay local.
func TestKernelCloneIndependence(t *testing.T) {
	k := New(Config{Cores: 2, UserProcs: 3, KernelProcs: 2, Devices: 2, Seed: 7})
	c := k.Clone()

	if c.OCPMEM == k.OCPMEM || c.DRAM == k.DRAM {
		t.Fatal("clone shares a memory bank with the source")
	}
	k.OCPMEM.Write(0x40, 0xdead)
	if c.OCPMEM.Read(0x40) == 0xdead {
		t.Fatal("source bank write visible in clone")
	}

	for i, p := range c.Procs {
		if p == k.Procs[i] {
			t.Fatalf("clone shares process %d with the source", i)
		}
	}
	for i := range c.Cores {
		if cur := c.Cores[i].Current; cur != nil {
			found := false
			for _, q := range c.Procs {
				if cur == q {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("clone core %d Current points outside the clone", i)
			}
		}
		for _, rq := range c.Cores[i].RunQueue {
			for _, sp := range k.Procs {
				if rq == sp {
					t.Fatalf("clone core %d run queue holds a source process", i)
				}
			}
		}
	}
}

// TestCloneQueuesGrowApart checks the clone's run queues and waiter lists,
// which share one backing array: growing or shrinking one list must leave
// every other list, and the source's, as it was.
func TestCloneQueuesGrowApart(t *testing.T) {
	k := New(Config{Cores: 4, UserProcs: 12, KernelProcs: 8, Devices: 2, SleepFraction: 0.4, Seed: 3})
	c := k.Clone()
	snapshot := func(k *Kernel) [][]int {
		var out [][]int
		for _, core := range k.Cores {
			var pids []int
			for _, p := range core.RunQueue {
				pids = append(pids, p.PID)
			}
			out = append(out, pids)
		}
		for _, q := range k.queues {
			var pids []int
			for _, p := range q.waiters {
				pids = append(pids, p.PID)
			}
			out = append(out, pids)
		}
		return out
	}
	srcBefore := snapshot(k)
	want := snapshot(c)
	woken := 0
	for i, p := range c.Procs {
		if p.State != TaskSleeping {
			continue
		}
		core := i % len(c.Cores)
		q := len(c.Cores) + slices.Index(c.queues, p.wq)
		want[q] = slices.DeleteFunc(want[q], func(pid int) bool { return pid == p.PID })
		c.WakeToCore(p, core)
		want[core] = append(want[core], p.PID)
		woken++
	}
	if woken < 2 {
		t.Fatalf("only %d sleepers to wake", woken)
	}
	if got := snapshot(c); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("clone queues after waking %v, want %v", got, want)
	}
	if got := snapshot(k); fmt.Sprint(got) != fmt.Sprint(srcBefore) {
		t.Fatalf("source queues changed to %v, were %v", got, srcBefore)
	}
}
