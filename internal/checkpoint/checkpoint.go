// Package checkpoint is the functional side of A-CheckPC (Section VI): an
// application-level checkpoint-restart library in the style of
// user-level HPC checkpointing [59]. Applications register the stack/heap
// variables a function mutates as a Region; at the end of the function the
// region is committed to a persistent pool, and after a crash Restore
// brings every committed region back.
//
// The library is deliberately faithful to the baseline's pain: every
// commit serializes the region's live variables and pays the pool writes
// (timed through the persist mechanism's model in the experiments); what
// it buys is exactly what the paper measures — checkpoint-grained, not
// instruction-grained, recovery.
package checkpoint

import (
	"errors"
	"fmt"

	"repro/internal/kernel"
)

// Manager tracks an application's checkpoint regions over a persistent
// bank.
type Manager struct {
	bank    *kernel.Bank
	regions map[string]*Region
	order   []*Region // registration order, for deterministic RestoreAll
	commits uint64
}

// Region is one function's live-variable set.
type Region struct {
	Name string
	vars []*uint64 // registered variables (live locations)

	mgr  *Manager
	base uint64
}

// ErrUnknownRegion marks a restore of a region never committed.
var ErrUnknownRegion = errors.New("checkpoint: unknown region")

// ckptBase is the pool area in the bank.
const ckptBase = kernel.RegionCkpt

// slotSpan separates a region's two snapshot slots. Each region owns a
// 1<<20 stride; the header word sits at the base and each slot gets half
// the remainder.
const slotSpan = 1 << 19

// NewManager opens a checkpoint pool on the bank (OC-PMEM for A-CheckPC's
// target).
func NewManager(bank *kernel.Bank) *Manager {
	return &Manager{bank: bank, regions: make(map[string]*Region)}
}

// Register declares a region covering the given variables. Registering the
// same name again extends the variable set (more locals came into scope).
func (m *Manager) Register(name string, vars ...*uint64) *Region {
	r, ok := m.regions[name]
	if !ok {
		r = &Region{
			Name: name,
			mgr:  m,
			base: ckptBase + uint64(len(m.regions))<<20,
		}
		m.regions[name] = r
		m.order = append(m.order, r)
	}
	r.vars = append(r.vars, vars...)
	return r
}

// slotAddr locates word i of snapshot slot s (0 or 1).
func (r *Region) slotAddr(s uint64, i int) uint64 {
	return r.base + 8 + s*slotSpan + uint64(i)*8
}

// Commit snapshots the region's variables into the pool — the per-function
// checkpoint. It returns the number of words written (the size the timing
// model prices).
//
// The write is crash-atomic via double buffering: variables land in the
// slot the live header does not point at, and one final header store
// (count<<1 | slot) flips the region to the new snapshot. A power cut
// anywhere before that store leaves the previous snapshot fully intact; a
// cut after it exposes the new snapshot in full. No cut can surface a
// partial commit.
//
//lightpc:commitpoint
func (r *Region) Commit() int {
	r.mgr.commits++
	hdr := r.mgr.bank.Read(r.base)
	next := (hdr & 1) ^ 1
	if hdr == 0 {
		next = 0 // first ever commit: both slots free
	}
	for i, v := range r.vars {
		r.mgr.bank.Write(r.slotAddr(next, i), *v)
	}
	r.mgr.bank.Write(r.base, uint64(len(r.vars))<<1|next)
	return len(r.vars) + 1
}

// Restore reloads the last committed snapshot into the live variables.
func (r *Region) Restore() error {
	hdr := r.mgr.bank.Read(r.base)
	n := hdr >> 1
	if n == 0 {
		return fmt.Errorf("%w: %s", ErrUnknownRegion, r.Name)
	}
	if int(n) > len(r.vars) {
		return fmt.Errorf("checkpoint: region %s shrank below its snapshot", r.Name)
	}
	slot := hdr & 1
	for i := 0; i < int(n); i++ {
		*r.vars[i] = r.mgr.bank.Read(r.slotAddr(slot, i))
	}
	return nil
}

// RestoreAll reloads every committed region in registration order (the
// post-reboot recovery pass).
func (m *Manager) RestoreAll() error {
	for _, r := range m.order {
		if m.bank.Read(r.base)>>1 == 0 {
			continue // never committed
		}
		if err := r.Restore(); err != nil {
			return err
		}
	}
	return nil
}

// Commits reports how many checkpoints have run — the frequency that makes
// A-CheckPC 8.8× slower than LightPC.
func (m *Manager) Commits() uint64 { return m.commits }
