// Package checkpoint mirrors repro/internal/checkpoint: region commits
// must flush before writing the commit word.
package checkpoint

import "kernel"

type region struct{ bank *kernel.Bank }

func flush() {}

// Commit writes the region's commit word; a primitive's interior is exempt.
//
//lightpc:commitpoint
func (r *region) Commit() { r.bank.Write(1<<40, 1) }

// Good: flush before commit, nothing persistent after.
func Good(r *region) {
	flush()
	r.Commit()
}

// Bad: commit with no flush, then a bank write after the commit.
func Bad(r *region) {
	r.Commit()             // want `not dominated by a cache/row-buffer flush`
	r.bank.Write(1<<41, 2) // want `after the commit point`
}
