// Package runner is the deterministic parallel execution engine for the
// experiment grids. The paper's evaluation is embarrassingly parallel —
// every figure is a grid of independent simulations — so each harness
// decomposes its grid into cells: one (experiment, workload,
// config-point) tuple per cell, or one (experiment, workload) pair that
// runs the workload on every platform it is compared across. Each cell
// owns its own platforms and a sub-seed derived from the cell's canonical
// label via sim.SubSeed/sim.RNG.Split. Cells are executed across a worker
// pool and the results are merged in canonical cell order, so experiment
// output is byte-for-byte identical at any parallelism, including -j 1.
//
// The determinism contract (DESIGN.md "Parallel execution & determinism
// contract"):
//
//   - a cell shares no mutable state with any other cell; everything it
//     touches (platform, kernel, PSM, RNG) is built inside Run, and a
//     buffer it takes from a free list is memory it overwrites before
//     reading, never held by two cells at once;
//   - a cell's seed derives from its label alone, never from which worker
//     picks it up or when;
//   - results land in the slot of the cell that produced them, and callers
//     merge slots in cell order.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Cell is one independent unit of experiment work. Label identifies the
// cell canonically ("fig15/AES", the cell that runs AES on Fig 15's three
// platforms) for sub-seeding and progress reporting; Run executes it and
// must not share mutable state with any other cell.
type Cell[R any] struct {
	Label string
	Run   func() R
}

// Pool configures cell execution.
type Pool struct {
	// Workers caps concurrency. 0 (or negative) means GOMAXPROCS;
	// 1 forces fully serial execution on the calling goroutine.
	Workers int
	// OnStart and OnDone, when set, observe each cell as a worker picks
	// it up and finishes it (CLI progress reporting). They may be called
	// concurrently from multiple workers.
	OnStart func(label string)
	OnDone  func(label string)
}

// workers resolves the effective worker count for n cells.
func (p Pool) workers(n int) int {
	w := p.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes every cell and returns the results in cell order, no
// matter which workers ran which cells. A panic inside a cell is
// re-raised on the calling goroutine, annotated with the cell label.
func Run[R any](p Pool, cells []Cell[R]) []R {
	n := len(cells)
	out := make([]R, n)
	if n == 0 {
		return out
	}
	one := func(i int) {
		c := cells[i]
		if p.OnStart != nil {
			p.OnStart(c.Label)
		}
		out[i] = c.Run()
		if p.OnDone != nil {
			p.OnDone(c.Label)
		}
	}

	w := p.workers(n)
	if w == 1 {
		for i := range cells {
			one(i)
		}
		return out
	}

	// Work-stealing by atomic cursor: each worker claims the next
	// unclaimed cell. Results are written to the claimed index, so the
	// output order is the cell order regardless of scheduling.
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		panicMu sync.Mutex
		panicV  any
	)
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicMu.Lock()
							if panicV == nil {
								panicV = fmt.Sprintf("runner: cell %q panicked: %v", cells[i].Label, r)
							}
							panicMu.Unlock()
						}
					}()
					one(i)
				}()
			}
		}()
	}
	wg.Wait()
	if panicV != nil {
		panic(panicV)
	}
	return out
}

// Map runs one cell per item: label names the cell (and so its sub-seed),
// f computes it. Results keep the item order.
func Map[T, R any](p Pool, items []T, label func(i int, item T) string, f func(label string, item T) R) []R {
	cells := make([]Cell[R], len(items))
	for i, item := range items {
		l := label(i, item)
		cells[i] = Cell[R]{Label: l, Run: func() R { return f(l, item) }}
	}
	return Run(p, cells)
}
