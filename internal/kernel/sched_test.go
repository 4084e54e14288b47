package kernel

import (
	"testing"
	"testing/quick"
)

func TestNiceWeightMonotonic(t *testing.T) {
	prev := niceWeight(-20)
	for nice := -19; nice <= 19; nice++ {
		w := niceWeight(nice)
		if w >= prev {
			t.Fatalf("weight not decreasing at nice %d: %d >= %d", nice, w, prev)
		}
		prev = w
	}
	if niceWeight(0) != 1024 {
		t.Fatalf("nice 0 weight = %d, want 1024", niceWeight(0))
	}
	// Clamping.
	if niceWeight(-100) != niceWeight(-20) || niceWeight(100) != niceWeight(19) {
		t.Fatal("clamping broken")
	}
}

func TestFairSchedulerPicksMinVruntime(t *testing.T) {
	k := New(DefaultConfig())
	c := k.Cores[0]
	// Empty the core and hand-load a queue.
	if c.Current != nil {
		k.Park(c.Current)
	}
	c.RunQueue = nil
	b := k.ProcBank()
	hot := newProcess(9001, "hot", false, b)
	hot.State = TaskRunnable
	hot.VRuntime = 10
	cold := newProcess(9002, "cold", false, b)
	cold.State = TaskRunnable
	cold.VRuntime = 5
	c.RunQueue = []*Process{hot, cold}
	k.scheduleNext(c)
	if c.Current != cold {
		t.Fatalf("picked %v, want the min-vruntime task", c.Current.Name)
	}
}

func TestHigherPriorityGetsMoreCPU(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UserProcs = 0
	cfg.KernelProcs = 0
	cfg.Cores = 1
	cfg.SleepFraction = 0
	k := New(cfg)
	b := k.ProcBank()
	fast := newProcess(1001, "fast", false, b)
	fast.Nice = -10
	fast.State = TaskRunnable
	slow := newProcess(1002, "slow", false, b)
	slow.Nice = 10
	slow.State = TaskRunnable
	k.Procs = append(k.Procs, fast, slow)
	k.Cores[0].RunQueue = append(k.Cores[0].RunQueue, fast, slow)
	for i := 0; i < 4000; i++ {
		// Drive the scheduler directly (Tick's churn would put them to
		// sleep).
		c := k.Cores[0]
		if c.Current != nil {
			c.Current.Step()
			c.Current.chargeVruntime(1)
		}
		k.scheduleNext(c)
	}
	if fast.Counter <= slow.Counter*2 {
		t.Fatalf("priority ignored: fast=%d slow=%d", fast.Counter, slow.Counter)
	}
}

func TestWaitOnWakeOneRoundTrip(t *testing.T) {
	k := New(DefaultConfig())
	wq := k.Queues()[0]
	var victim *Process
	for _, c := range k.Cores {
		if c.Current != nil {
			victim = c.Current
			break
		}
	}
	k.WaitOn(victim, wq)
	if victim.State != TaskSleeping || k.QueueOf(victim) != wq {
		t.Fatalf("WaitOn left state %v", victim.State)
	}
	// The core no longer runs it.
	for _, c := range k.Cores {
		if c.Current == victim {
			t.Fatal("sleeping task still current")
		}
	}
	woken := k.WakeOne(wq, 2)
	for woken != victim && woken != nil {
		woken = k.WakeOne(wq, 2) // other waiters may precede it
	}
	if woken != victim {
		t.Fatal("victim never woke")
	}
	if victim.State != TaskRunnable || victim.CoreID != 2 || k.QueueOf(victim) != nil {
		t.Fatalf("wake left state %v core %d", victim.State, victim.CoreID)
	}
}

func TestWakeOneEmptyQueue(t *testing.T) {
	k := New(DefaultConfig())
	wq := &WaitQueue{Name: "empty"}
	if k.WakeOne(wq, 0) != nil {
		t.Fatal("woke a ghost")
	}
}

func TestSleeperVruntimeNormalizedOnWake(t *testing.T) {
	// A task that slept a long time must not starve the core when it
	// returns (it inherits the run queue's min vruntime).
	k := New(DefaultConfig())
	k.Tick(50) // build up vruntime on the runnables
	sleepers := k.Sleepers()
	if len(sleepers) == 0 {
		t.Skip("no sleepers with this seed")
	}
	p := sleepers[0]
	k.WakeToCore(p, 0)
	minV := k.minVruntime(0)
	if p.VRuntime > minV {
		t.Fatalf("woken vruntime %d above core min %d", p.VRuntime, minV)
	}
}

// Property: scheduler bookkeeping stays consistent under arbitrary
// wait/wake/tick interleavings — every task is in exactly one place.
func TestSchedulerConsistencyProperty(t *testing.T) {
	f := func(seed uint64, ops []uint8) bool {
		cfg := DefaultConfig()
		cfg.Seed = seed%1000 + 1
		k := New(cfg)
		for _, op := range ops {
			switch op % 3 {
			case 0:
				k.Tick(int(op%5) + 1)
			case 1:
				if s := k.Sleepers(); len(s) > 0 {
					k.WakeToCore(s[int(op)%len(s)], int(op)%len(k.Cores))
				}
			case 2:
				for _, c := range k.Cores {
					if c.Current != nil {
						k.WaitOn(c.Current, k.Queues()[int(op)%len(k.Queues())])
						break
					}
				}
			}
			if !schedulerConsistent(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// schedulerConsistent checks the invariant: sleeping ⇔ on exactly one wait
// queue; running ⇔ some core's current; runnable ⇒ on its core's run queue
// and on no wait queue.
func schedulerConsistent(k *Kernel) bool {
	onQueue := map[*Process]int{}
	for _, wq := range k.Queues() {
		for _, p := range wq.waiters {
			onQueue[p]++
		}
	}
	current := map[*Process]bool{}
	for _, c := range k.Cores {
		if c.Current != nil {
			current[c.Current] = true
		}
	}
	for _, p := range k.Procs {
		switch p.State {
		case TaskSleeping:
			if onQueue[p] != 1 || current[p] {
				return false
			}
		case TaskRunning:
			if !current[p] || onQueue[p] != 0 {
				return false
			}
		case TaskRunnable:
			if current[p] || onQueue[p] != 0 {
				return false
			}
			found := false
			for _, q := range k.Cores[p.CoreID].RunQueue {
				if q == p {
					found = true
				}
			}
			if !found {
				return false
			}
		}
	}
	return true
}
