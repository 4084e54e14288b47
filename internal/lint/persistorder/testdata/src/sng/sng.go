// Package sng mirrors repro/internal/sng: Stop flushes, then writes the
// kernel's commit word, under a deadline-driven spend.
package sng

import "kernel"

type run struct{ dead bool }

func (r *run) spend(d int64) bool { return !r.dead }

func flushCaches() {}
func memSync()     {}

// store reaches the bank through a local helper.
func store(b *kernel.Bank, v uint64) { b.Write(128, v) }

// GoodStop: flush and sync dominate the commit.
func GoodStop(k *kernel.Kernel, r *run) {
	flushCaches()
	memSync()
	if r.spend(3) {
		k.Boot.Commit()
	}
}

// GoodGuardedFlush: the flush charge is the condition guarding the commit,
// so it executes on every path that reaches it.
func GoodGuardedFlush(k *kernel.Kernel, r *run, flush int64) {
	if r.spend(flush) {
		k.Boot.Commit()
	}
}

// BadNoFlush commits without any flush at all.
func BadNoFlush(k *kernel.Kernel) {
	k.Boot.Commit() // want `kernel.Bootloader.Commit is not dominated by a cache/row-buffer flush`
}

// BadLoopFlush flushes only inside a loop body, which may run zero times:
// that does not dominate the commit.
func BadLoopFlush(k *kernel.Kernel) {
	for range k.Cores {
		flushCaches()
	}
	k.Boot.Commit() // want `not dominated by a cache/row-buffer flush`
}

// BadBranchFlush flushes only on one branch not enclosing the commit.
func BadBranchFlush(k *kernel.Kernel, havePSM bool) {
	if havePSM {
		flushCaches()
	}
	k.Boot.Commit() // want `not dominated by a cache/row-buffer flush`
}

// BadDeferredFlush flushes in a function literal, which runs only at
// return: a literal's flush dominates nothing outside it.
func BadDeferredFlush(k *kernel.Kernel) {
	defer func() { flushCaches() }()
	k.Boot.Commit() // want `not dominated by a cache/row-buffer flush`
}

// BadMutateAfterCommit stores into EP-cut state after the commit word.
func BadMutateAfterCommit(k *kernel.Kernel, c *kernel.Core) {
	memSync()
	k.Boot.Commit()
	k.PersistFlag = false // want `persistent mutation \(kernel\.Kernel\.PersistFlag\) after the commit point \(kernel\.Bootloader\.Commit\)`
	c.DirtyLines = 0      // want `kernel\.Core\.DirtyLines`
	c.MRegs[0] = 0        // want `kernel\.Core\.MRegs`
	c.Online = false      // power marker, not EP-cut state: allowed
	k.Boot.SetMEPC(0)     // want `kernel\.Bootloader\.SetMEPC`
}

// BadWriteAfterCommit issues a persistent-bank write after the commit,
// directly, through a local helper, and inside a function literal written
// after it.
func BadWriteAfterCommit(k *kernel.Kernel, b *kernel.Bank, each func(func())) {
	memSync()
	k.Boot.Commit()
	b.Write(64, 1)                  // want `persistent mutation \(kernel\.Bank\.Write\) after the commit point`
	store(b, 1)                     // want `persistent mutation \(sng\.store\) after the commit point`
	each(func() { b.Write(64, 2) }) // want `kernel\.Bank\.Write`
}

// BadUncheckedSpend discards the deadline result.
func BadUncheckedSpend(r *run) {
	r.spend(7)     // want `result of spend\(\.\.\.\) discarded`
	_ = r.spend(8) // explicit discard: acknowledged
	if !r.spend(9) {
		return
	}
}

// AllowedCommit demonstrates the escape hatch.
func AllowedCommit(k *kernel.Kernel) {
	k.Boot.Commit() //lint:allow persistorder commit word lives in an uncached bank
}
