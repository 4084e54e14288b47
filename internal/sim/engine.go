package sim

import "fmt"

// EventID is a generation-counted handle to a scheduled event. The zero
// value (NoEvent) never names a live event, and a handle goes stale the
// moment its event fires or its cancellation is collected, so Cancel stays
// safe — a no-op — no matter how long the caller holds on to it or how many
// times the underlying arena slot has been reused since.
//
// Layout: the low 32 bits carry the arena slot index plus one (so the zero
// ID is invalid), the high 32 bits carry the slot's generation at
// scheduling time.
type EventID uint64

// NoEvent is the invalid handle; Cancel(NoEvent) is a no-op.
const NoEvent EventID = 0

//lightpc:zeroalloc
func makeEventID(idx int32, gen uint32) EventID {
	return EventID(uint64(gen)<<32 | uint64(uint32(idx)+1))
}

//lightpc:zeroalloc
func (id EventID) split() (idx int32, gen uint32, ok bool) {
	lo := uint32(id)
	if lo == 0 {
		return 0, 0, false
	}
	return int32(lo - 1), uint32(id >> 32), true
}

// slot states. A slot is free (on the free list), queued (live in the heap
// or immediate ring), or canceled (still in a queue structure but dead; it
// is collected and freed when it reaches the front).
const (
	slotFree uint8 = iota
	slotQueued
	slotCanceled
)

// eventSlot is one arena entry. Events are never individually heap
// allocated: the arena is a flat slice reused through a free list, so a
// steady-state Schedule/dispatch churn allocates nothing.
type eventSlot struct {
	at    Time
	seq   uint64 // tiebreaker: FIFO among same-timestamp events
	fn    func(now Time)
	label string
	gen   uint32
	state uint8
	next  int32 // free-list link
}

// Engine is a deterministic discrete-event simulator. It is not safe for
// concurrent use; the whole simulation is single-threaded by design so that
// results are bit-reproducible for a given seed.
//
// Internally it keeps a pooled event arena indexed by a 4-ary min-heap of
// slot indices ordered by (time, seq), plus a FIFO ring that fast-paths
// zero-delay events (see peek for why the split preserves the exact global
// dispatch order).
type Engine struct {
	now     Time
	seq     uint64
	events  uint64 // total dispatched
	live    int    // queued and not canceled
	immHits uint64 // events that took the zero-delay ring fast path
	heapMax int    // high-water mark of the timer heap

	slots []eventSlot
	free  int32 // head of the free-slot list, -1 when empty

	heap []int32 // 4-ary min-heap of slot indices, keyed by (at, seq)

	// imm is the immediate ring: events scheduled for the current
	// timestamp. Entries are appended in seq order and the engine clock
	// never moves backwards, so the ring is already sorted by (at, seq)
	// and its head is its minimum — no sift needed.
	imm     []int32
	immHead int
}

// NewEngine returns an engine positioned at time zero.
func NewEngine() *Engine { return &Engine{free: -1} }

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Dispatched reports how many events have run so far.
func (e *Engine) Dispatched() uint64 { return e.events }

// Pending reports how many live events are queued. An event leaves the
// count the moment it is canceled or dispatched — not when its arena slot
// is later collected — so Pending never includes canceled events still
// parked in the heap or immediate ring awaiting lazy reaping, and a stale
// Cancel (fired, already-canceled, or zero handle) leaves it unchanged.
func (e *Engine) Pending() int { return e.live }

// EngineStats is a snapshot of the engine's scheduler counters, the raw
// material the obs package exposes as registered metrics.
type EngineStats struct {
	Dispatched    uint64 // events run so far
	ImmediateHits uint64 // events that skipped the heap via the zero-delay ring
	Pending       int    // live events queued now (canceled excluded)
	HeapDepth     int    // current timer-heap size
	MaxHeapDepth  int    // high-water mark of the timer heap
	ArenaSlots    int    // event-arena capacity (slots ever allocated)
}

// Stats snapshots the scheduler counters.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Dispatched:    e.events,
		ImmediateHits: e.immHits,
		Pending:       e.live,
		HeapDepth:     len(e.heap),
		MaxHeapDepth:  e.heapMax,
		ArenaSlots:    len(e.slots),
	}
}

// alloc takes a slot off the free list (or grows the arena) and fills it.
//
//lightpc:zeroalloc
func (e *Engine) alloc(at Time, label string, fn func(now Time)) int32 {
	var idx int32
	if e.free >= 0 {
		idx = e.free
		e.free = e.slots[idx].next
	} else {
		//lint:allow zeroalloc arena growth is amortized; steady state reuses the free list
		e.slots = append(e.slots, eventSlot{})
		idx = int32(len(e.slots) - 1)
	}
	s := &e.slots[idx]
	s.at = at
	s.seq = e.seq
	s.fn = fn
	s.label = label
	s.state = slotQueued
	e.seq++
	e.live++
	return idx
}

// release returns a slot to the free list, bumping its generation so every
// outstanding EventID naming it goes stale.
//
//lightpc:zeroalloc
func (e *Engine) release(idx int32) {
	s := &e.slots[idx]
	s.fn = nil
	s.label = ""
	s.gen++
	s.state = slotFree
	s.next = e.free
	e.free = idx
}

// Schedule queues fn to run after delay. It returns the event handle, which
// may be canceled. A negative delay is an error in the caller; it panics to
// surface the bug immediately.
//
//lightpc:zeroalloc
func (e *Engine) Schedule(delay Duration, label string, fn func(now Time)) EventID {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v for event %q", delay, label))
	}
	return e.ScheduleAt(e.now.Add(delay), label, fn)
}

// ScheduleAt queues fn to run at the absolute timestamp at, which must not
// be in the simulated past. Events landing exactly on the current timestamp
// take a heap-free fast path: a newly scheduled event carries the largest
// sequence number so far, so appending it to the immediate ring keeps the
// ring sorted by (time, seq).
//
//lightpc:zeroalloc
func (e *Engine) ScheduleAt(at Time, label string, fn func(now Time)) EventID {
	if at < e.now {
		panic(fmt.Sprintf("sim: event %q scheduled at %v before now %v", label, at, e.now))
	}
	idx := e.alloc(at, label, fn)
	if at == e.now {
		//lint:allow zeroalloc ring backing is reused after each drain; growth is amortized
		e.imm = append(e.imm, idx)
		e.immHits++
	} else {
		e.heapPush(idx)
	}
	return makeEventID(idx, e.slots[idx].gen)
}

// Cancel removes a scheduled event. Canceling an already-fired,
// already-canceled, or zero handle is a no-op. Cancellation is lazy: the
// slot is marked dead and collected when it reaches the front of its queue,
// so Cancel is O(1) and never disturbs heap order.
//
//lightpc:zeroalloc
func (e *Engine) Cancel(id EventID) {
	idx, gen, ok := id.split()
	if !ok || int(idx) >= len(e.slots) {
		return
	}
	s := &e.slots[idx]
	if s.gen != gen || s.state != slotQueued {
		return
	}
	s.state = slotCanceled
	s.fn = nil // release the closure now; the slot itself is collected later
	e.live--
}

// top reports the queue structure holding the global minimum (time, seq):
// the heap root or the immediate-ring head. ok is false when both are
// empty.
//
//lightpc:zeroalloc
func (e *Engine) top() (idx int32, fromImm, ok bool) {
	hasHeap := len(e.heap) > 0
	hasImm := e.immHead < len(e.imm)
	switch {
	case !hasHeap && !hasImm:
		return 0, false, false
	case !hasHeap:
		return e.imm[e.immHead], true, true
	case !hasImm:
		return e.heap[0], false, true
	}
	h, i := e.heap[0], e.imm[e.immHead]
	if e.less(h, i) {
		return h, false, true
	}
	return i, true, true
}

// popTop removes the entry top reported.
//
//lightpc:zeroalloc
func (e *Engine) popTop(fromImm bool) {
	if fromImm {
		e.immHead++
		if e.immHead == len(e.imm) {
			e.imm = e.imm[:0]
			e.immHead = 0
		} else if e.immHead > 32 && e.immHead*2 >= len(e.imm) {
			// Keep the ring from growing without bound when it never
			// fully drains (e.g. dispatch loops that keep re-arming
			// immediate work).
			n := copy(e.imm, e.imm[e.immHead:])
			e.imm = e.imm[:n]
			e.immHead = 0
		}
		return
	}
	e.heapPop()
}

// peek skips to the earliest live event, collecting canceled slots along
// the way, and reports its slot index without removing it. It is the single
// place canceled events are reaped — Step and RunUntil both go through it.
//
//lightpc:zeroalloc
func (e *Engine) peek() (idx int32, fromImm, ok bool) {
	for {
		idx, fromImm, ok = e.top()
		if !ok {
			return 0, false, false
		}
		if e.slots[idx].state == slotCanceled {
			e.popTop(fromImm)
			e.release(idx)
			continue
		}
		return idx, fromImm, true
	}
}

// dispatch pops the peeked minimum and runs it. The slot is released before
// the callback runs so nested Schedule calls can reuse it.
//
//lightpc:zeroalloc
func (e *Engine) dispatch(idx int32, fromImm bool) {
	e.popTop(fromImm)
	s := &e.slots[idx]
	at, fn := s.at, s.fn
	e.release(idx)
	e.live--
	e.now = at
	e.events++
	//lint:allow zeroalloc the event callback owns its own allocation budget
	fn(e.now)
}

// Step runs the single earliest event. It reports false when the queue is
// empty.
//
//lightpc:zeroalloc
func (e *Engine) Step() bool {
	idx, fromImm, ok := e.peek()
	if !ok {
		return false
	}
	e.dispatch(idx, fromImm)
	return true
}

// Run dispatches events until the queue drains.
//
//lightpc:zeroalloc
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil dispatches events with timestamps at or before deadline, then
// advances the clock to deadline (if the clock has not already passed it).
//
//lightpc:zeroalloc
func (e *Engine) RunUntil(deadline Time) {
	for {
		idx, fromImm, ok := e.peek()
		if !ok || e.slots[idx].at > deadline {
			break
		}
		e.dispatch(idx, fromImm)
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunFor advances simulated time by d, dispatching due events.
//
//lightpc:zeroalloc
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }

// less orders slots by (time, seq).
//
//lightpc:zeroalloc
func (e *Engine) less(a, b int32) bool {
	sa, sb := &e.slots[a], &e.slots[b]
	if sa.at != sb.at {
		return sa.at < sb.at
	}
	return sa.seq < sb.seq
}

// The heap is 4-ary: shallower than a binary heap (fewer cache lines
// touched per sift) and free of the container/heap interface boxing that
// the old *Event implementation paid on every Push/Pop.

//lightpc:zeroalloc
func (e *Engine) heapPush(idx int32) {
	//lint:allow zeroalloc heap backing is amortized, bounded by peak pending events
	e.heap = append(e.heap, idx)
	if len(e.heap) > e.heapMax {
		e.heapMax = len(e.heap)
	}
	i := len(e.heap) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !e.less(e.heap[i], e.heap[parent]) {
			break
		}
		e.heap[i], e.heap[parent] = e.heap[parent], e.heap[i]
		i = parent
	}
}

//lightpc:zeroalloc
func (e *Engine) heapPop() {
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap = e.heap[:n]
	if n == 0 {
		return
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if e.less(e.heap[c], e.heap[min]) {
				min = c
			}
		}
		if !e.less(e.heap[min], e.heap[i]) {
			break
		}
		e.heap[i], e.heap[min] = e.heap[min], e.heap[i]
		i = min
	}
}
