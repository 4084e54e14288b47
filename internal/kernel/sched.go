package kernel

// Fair scheduling and wait queues: the mini-OS schedules like CFS in
// miniature — each task carries a virtual runtime weighted by its nice
// value, cores run the min-vruntime runnable task, and sleeping tasks park
// on wait queues until an event (or Drive-to-Idle) wakes them. This is the
// machinery SnG races against: "a sleeping process can be scheduled in a
// brief space of time, thereby making the machine state non-deterministic"
// (Section III-B).

// WaitQueue is a kernel wait queue: tasks sleep on it until an event.
type WaitQueue struct {
	Name    string
	waiters []*Process
}

// Waiters reports how many tasks sleep on the queue.
func (wq *WaitQueue) Waiters() int { return len(wq.waiters) }

func (wq *WaitQueue) remove(p *Process) {
	for i, w := range wq.waiters {
		if w == p {
			wq.waiters = append(wq.waiters[:i], wq.waiters[i+1:]...)
			return
		}
	}
}

// niceWeight maps a nice value (-20..19) to a CFS-style load weight; lower
// nice = heavier weight = slower vruntime growth = more CPU.
func niceWeight(nice int) uint64 {
	if nice < -20 {
		nice = -20
	}
	if nice > 19 {
		nice = 19
	}
	// 1024 at nice 0, ~+10% CPU per nice step down.
	w := 1024.0
	for i := 0; i < nice; i++ {
		w /= 1.25
	}
	for i := 0; i > nice; i-- {
		w *= 1.25
	}
	if w < 15 {
		w = 15
	}
	return uint64(w)
}

// chargeVruntime accounts executed steps against the task's virtual
// runtime.
func (p *Process) chargeVruntime(steps int) {
	p.VRuntime += uint64(steps) * 1024 * 1024 / niceWeight(p.Nice)
}

// WaitOn parks the (running or runnable) task on the wait queue: it leaves
// its run queue and goes to interruptible sleep until an event.
func (k *Kernel) WaitOn(p *Process, wq *WaitQueue) {
	if p.State == TaskRunning {
		c := k.Cores[p.CoreID]
		if c.Current == p {
			p.SaveContext()
			c.Current = nil
		}
	}
	k.removeFromRunQueue(p)
	if p.wq != nil {
		p.wq.remove(p)
	}
	p.State = TaskSleeping
	p.CoreID = -1
	p.wq = wq
	wq.waiters = append(wq.waiters, p)
}

// WakeOne delivers an event to the queue's oldest waiter, making it
// runnable on the given core. It returns the woken task (nil when empty).
func (k *Kernel) WakeOne(wq *WaitQueue, coreID int) *Process {
	if len(wq.waiters) == 0 {
		return nil
	}
	p := wq.waiters[0]
	wq.waiters = wq.waiters[1:]
	p.wq = nil
	// Sleepers resume with the run queue's minimum vruntime so they
	// neither starve nor monopolize.
	p.VRuntime = k.minVruntime(coreID)
	p.State = TaskRunnable
	p.CoreID = coreID
	k.Cores[coreID].RunQueue = append(k.Cores[coreID].RunQueue, p)
	return p
}

// minVruntime reports the smallest vruntime among the core's tasks (0 for
// an empty core).
func (k *Kernel) minVruntime(coreID int) uint64 {
	c := k.Cores[coreID]
	var minV uint64
	found := false
	consider := func(p *Process) {
		if p == nil {
			return
		}
		if !found || p.VRuntime < minV {
			minV = p.VRuntime
			found = true
		}
	}
	consider(c.Current)
	for _, p := range c.RunQueue {
		consider(p)
	}
	return minV
}

// pickNext removes and returns the min-vruntime runnable task from the
// core's run queue (nil when none).
func (k *Kernel) pickNext(c *Core) *Process {
	best := -1
	for i, p := range c.RunQueue {
		if p.State != TaskRunnable {
			continue
		}
		if best < 0 || p.VRuntime < c.RunQueue[best].VRuntime {
			best = i
		}
	}
	if best < 0 {
		c.RunQueue = c.RunQueue[:0]
		return nil
	}
	p := c.RunQueue[best]
	c.RunQueue = append(c.RunQueue[:best], c.RunQueue[best+1:]...)
	return p
}

// Queues exposes the kernel's wait queues.
func (k *Kernel) Queues() []*WaitQueue { return k.queues }

// QueueOf reports which wait queue a task sleeps on (nil if none).
func (k *Kernel) QueueOf(p *Process) *WaitQueue { return p.wq }
