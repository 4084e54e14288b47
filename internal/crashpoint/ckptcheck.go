package crashpoint

import (
	"fmt"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// ckptShapes are the region layouts the manager checker registers.
var ckptShapes = []struct {
	name string
	vars int
}{{"alpha", 4}, {"beta", 3}}

// ckptCommitMark brackets one recorded Region.Commit.
type ckptCommitMark struct {
	region     int
	begin, end int      // recorder write indices
	snap       []uint64 // live values at the commit
}

// CheckManager runs a seeded mutate/commit interleaving over a checkpoint
// Manager, enumerates every word-granular crash state, restores each with
// a fresh manager (the restarted application re-registering its regions),
// and verifies RestoreAll yields exactly the last committed contents per
// region — never a partial commit (I1), never live values that were not
// committed (I4). Inside a Commit's own writes either the old or the new
// snapshot is acceptable, but nothing in between.
func CheckManager(seed uint64, rounds int) []Violation {
	bank := kernel.NewBank("ocpmem", true)
	m := checkpoint.NewManager(bank)
	rng := sim.NewRNG(seed)

	live := make([][]uint64, len(ckptShapes))
	regs := make([]*checkpoint.Region, len(ckptShapes))
	base := make([][]uint64, len(ckptShapes))
	for i, sh := range ckptShapes {
		live[i] = make([]uint64, sh.vars)
		ptrs := make([]*uint64, sh.vars)
		for j := range ptrs {
			live[i][j] = rng.Uint64()
			ptrs[j] = &live[i][j]
		}
		regs[i] = m.Register(sh.name, ptrs...)
		regs[i].Commit() // baseline snapshot, outside the recorded window
		base[i] = append([]uint64(nil), live[i]...)
	}

	var marks []ckptCommitMark
	rec := Record(bank)
	for r := 0; r < rounds; r++ {
		i := rng.Intn(len(regs))
		if rng.Bool(0.6) {
			live[i][rng.Intn(len(live[i]))] = rng.Uint64()
			continue
		}
		begin := rec.Writes()
		regs[i].Commit()
		marks = append(marks, ckptCommitMark{
			region: i, begin: begin, end: rec.Writes(),
			snap: append([]uint64(nil), live[i]...),
		})
	}
	rec.Stop()

	// committedAt returns region i's expected snapshot at cut k, plus the
	// previous one when k lands inside one of i's commit windows.
	committedAt := func(i, k int) (want []uint64, alsoOK []uint64) {
		want = base[i]
		for _, mk := range marks {
			if mk.region != i {
				continue
			}
			if mk.end <= k {
				want = mk.snap
				continue
			}
			if mk.begin <= k {
				alsoOK = mk.snap // mid-commit: new snapshot acceptable too
			}
			break
		}
		return want, alsoOK
	}

	var out []Violation
	for k := 0; k <= rec.Writes(); k++ {
		cut := fmt.Sprintf("write %d/%d", k, rec.Writes())
		b := rec.BankAt(k)
		m2 := checkpoint.NewManager(b)
		got := make([][]uint64, len(ckptShapes))
		for i, sh := range ckptShapes {
			got[i] = make([]uint64, sh.vars)
			ptrs := make([]*uint64, sh.vars)
			for j := range ptrs {
				ptrs[j] = &got[i][j]
			}
			m2.Register(sh.name, ptrs...)
		}
		if err := m2.RestoreAll(); err != nil {
			out = append(out, violationf(cut, InvWedged, "RestoreAll: %v", err))
			continue
		}
		for i, sh := range ckptShapes {
			want, alsoOK := committedAt(i, k)
			if slices.Equal(got[i], want) || (alsoOK != nil && slices.Equal(got[i], alsoOK)) {
				continue
			}
			inv := InvTornCommit
			detail := "restored values match no committed snapshot"
			if slices.Equal(got[i], live[i]) {
				inv = InvResidue
				detail = "restored values match uncommitted live state"
			}
			out = append(out, violationf(cut, inv, "region %s: %s (got %v, want %v)",
				sh.name, detail, got[i], want))
		}
	}
	return out
}
