package crashpoint

import (
	"bytes"
	"errors"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/journal"
	"repro/internal/kernel"
	"repro/internal/pmdk"
	"repro/internal/sim"
	"repro/internal/sng"
	"repro/internal/trace"
)

// CutOutcome is the machine-readable result of one simulated power cut.
type CutOutcome struct {
	OffsetPs    int64 `json:"offset_ps"`
	Completed   bool  `json:"completed"`
	HasCommit   bool  `json:"has_commit"`
	StopTotalPs int64 `json:"stop_total_ps"`

	// OverrunPhase names the SnG phase that was charging time when the
	// rails dropped ("" when Stop completed).
	OverrunPhase string `json:"overrun_phase,omitempty"`

	// Recovered is true on the warm path (Go succeeded), ColdBooted on the
	// cold path (no EP-cut commit existed).
	Recovered  bool `json:"recovered"`
	ColdBooted bool `json:"cold_booted"`

	Violations []Violation `json:"violations,omitempty"`
}

// report appends a violation to the outcome, labelled with the cut's
// offset. Only a violation formats the label.
func (o *CutOutcome) report(invariant, format string, args ...any) {
	cut := "cut@" + sim.Duration(o.OffsetPs).String()
	o.Violations = append(o.Violations, violationf(cut, invariant, format, args...))
}

// CutAt drops the power rails exactly offset into the SnG Stop sequence and
// checks every recovery invariant. It consumes the System: the platform has
// been through an outage afterwards and must not be cut again.
//
// Checked, in order:
//
//   - I3 (no torn EP-cut): Stop's own completion verdict must agree with
//     the persistent commit word — a cut can never leave a commit without a
//     complete image, or a complete image without a commit.
//   - I2 (pre-cut state): the application regions of OC-PMEM (pmdk pool,
//     checkpoint pool, hibernation area) are byte-identical to the pre-cut
//     capture. Stop may only write the BCB and DCB regions.
//   - I1 (post-commit restorable), commit path: Go must succeed and restore
//     core machine registers, device contexts and MMIO, wear-leveler
//     metadata, and every parked task, exactly; the consumed commit and a
//     follow-up tick prove the system is live.
//   - Cold path: Go must refuse with ErrNoCommit, and after ColdBoot a
//     full-window Stop/Go cycle must succeed (the outage must not wedge
//     the machine, I1's liveness half).
//   - I2/I4, application recovery (both paths): journal replay yields
//     exactly the committed map and no staged key; pool rollback yields the
//     last transaction boundary; checkpoint restore yields the committed
//     snapshots, never dirty live values; datastore lines read back intact.
func (s *System) CutAt(offset sim.Duration) CutOutcome {
	p := s.Platform
	k := p.Kernel()
	out := CutOutcome{OffsetPs: int64(offset)}

	rep := p.SnG().Stop(0, sim.Time(0).Add(offset))
	k.PowerLoss()
	out.Completed = rep.Completed
	out.HasCommit = k.Boot.HasCommit()
	out.StopTotalPs = int64(rep.Total)
	out.OverrunPhase = rep.OverrunPhase

	if out.Completed != out.HasCommit {
		out.report(InvTornEPCut,
			"Stop completed=%v but commit word present=%v", out.Completed, out.HasCommit)
	}
	if got := appRegionsChecksum(k.OCPMEM); got != s.pre.appChecksum {
		out.report(InvPreCutState,
			"application regions changed across the cut: %#x != %#x", got, s.pre.appChecksum)
	}

	if out.HasCommit {
		wantWear := k.Boot.WearMeta()
		goRep, err := p.Recover(0)
		if err != nil {
			out.report(InvRestorable, "Go failed on a committed cut: %v", err)
			return out
		}
		out.Recovered = true
		s.checkKernelRestored(&out, goRep, wantWear)
	} else {
		if _, err := p.Recover(0); !errors.Is(err, sng.ErrNoCommit) {
			out.report(InvTornEPCut,
				"Go on an uncommitted cut returned %v, want ErrNoCommit", err)
		}
		p.ColdBoot()
		out.ColdBooted = true
		// The outage must not wedge the machine: a fresh boot must be able
		// to run a full Stop/Go cycle.
		k2 := p.Kernel()
		rep2 := p.SnG().Stop(0, sim.Time(1<<62))
		k2.PowerLoss()
		if !rep2.Completed {
			out.report(InvWedged, "post-cold-boot Stop did not complete")
		} else if _, err := p.Recover(0); err != nil {
			out.report(InvWedged, "post-cold-boot Go failed: %v", err)
		}
	}

	s.checkAppRecovered(&out)
	return out
}

// checkKernelRestored verifies the warm path restored the exact pre-cut
// kernel image (I1).
func (s *System) checkKernelRestored(out *CutOutcome, rep sng.GoReport, wantWear [4]uint64) {
	k := s.Platform.Kernel()
	for i, c := range k.Cores {
		if !c.Online {
			out.report(InvRestorable, "core %d offline after Go", i)
		}
		if c.MRegs != s.pre.coreMRegs[i] {
			out.report(InvRestorable,
				"core %d machine registers %#x != pre-cut %#x", i, c.MRegs, s.pre.coreMRegs[i])
		}
	}
	for i, d := range k.Devices {
		if d.State != kernel.DevActive {
			out.report(InvRestorable, "device %s not active after Go", d.Name)
		}
		if d.Context != s.pre.devContext[i] || d.MMIO != s.pre.devMMIO[i] {
			out.report(InvRestorable,
				"device %s context %#x/%#x != pre-cut %#x/%#x",
				d.Name, d.Context, d.MMIO, s.pre.devContext[i], s.pre.devMMIO[i])
		}
	}
	if psmDev := s.Platform.PSM(); psmDev != nil {
		if wl := psmDev.WearLeveler(); wl != nil {
			a, b, c, d := wl.Metadata()
			if [4]uint64{a, b, c, d} != wantWear {
				out.report(InvRestorable,
					"wear-leveler metadata %v != committed %v", [4]uint64{a, b, c, d}, wantWear)
			}
		}
	}
	if rep.ResumedTasks != s.pre.aliveCount {
		out.report(InvRestorable,
			"resumed %d tasks, %d were alive at the cut", rep.ResumedTasks, s.pre.aliveCount)
	}
	if k.Boot.HasCommit() {
		out.report(InvRestorable, "EP-cut commit not consumed by Go")
	}
	k.Tick(1)
}

// checkAppRecovered runs every application-level recovery path and compares
// against the shadow (both warm and cold paths).
func (s *System) checkAppRecovered(out *CutOutcome) {
	// WAL store: replay must surface exactly the committed map.
	s.journal.Crash()
	s.journal.RecoverState()
	if got, want := s.journal.Len(), len(s.shadow.jCommitted); got != want {
		out.report(InvTornCommit, "journal recovered %d keys, committed %d", got, want)
	}
	for i, key := range s.shadow.committedKeys {
		v, err := s.journal.Get(key)
		if err != nil {
			out.report(InvLostCommit, "committed journal key %d lost: %v", key, err)
			continue
		}
		if want := s.shadow.committedVals[i]; v != want {
			out.report(InvTornCommit,
				"journal key %d = %d, committed %d", key, v, want)
		}
	}
	for _, key := range s.shadow.stagedKeys {
		if v, err := s.journal.Get(key); !errors.Is(err, journal.ErrNotFound) {
			out.report(InvResidue, "staged journal key %d readable (= %d)", key, v)
		}
	}

	// pmdk pool: reopening recovers; the open residue transaction must roll
	// back to the last committed boundary.
	bank := s.Platform.Kernel().OCPMEM
	p2 := pmdk.Open(bank)
	if p2.InTx() {
		out.report(InvWedged, "pool transaction still open after recovery")
	} else if root := p2.Root(); root == pmdk.NilOID {
		out.report(InvLostCommit, "pool root object lost")
	} else {
		got := make([]uint64, poolObjWords)
		for i := range got {
			got[i] = p2.Get(root, i)
		}
		if !slices.Equal(got, s.shadow.pool) {
			out.report(InvResidue,
				"pool object %v != last committed %v", got, s.shadow.pool)
		}
	}

	// Checkpoint bank: a restarted application re-registers and restores;
	// it must see the committed snapshots, never the dirty live values.
	m2 := checkpoint.NewManager(bank)
	for _, r := range s.shadow.regions {
		got := make([]uint64, len(r.live))
		ptrs := make([]*uint64, len(r.live))
		for j := range ptrs {
			ptrs[j] = &got[j]
		}
		reg2 := m2.Register(r.name, ptrs...)
		if err := reg2.Restore(); err != nil {
			out.report(InvWedged, "checkpoint region %s restore: %v", r.name, err)
			continue
		}
		if !slices.Equal(got, r.committed) {
			inv := InvTornCommit
			detail := "matches no committed snapshot"
			if slices.Equal(got, r.live) {
				inv = InvResidue
				detail = "matches uncommitted live values"
			}
			out.report(inv, "checkpoint region %s: restored %v %s (committed %v)",
				r.name, got, detail, r.committed)
		}
	}

	// PSM datastore: every written line must read back byte-identical.
	if ds := s.Platform.DataStore(); ds != nil {
		var buf [trace.CacheLineSize]byte
		for i, line := range s.shadow.lineKeys {
			if _, err := ds.ReadInto(0, line, buf[:]); err != nil {
				out.report(InvLostCommit, "datastore line %d unreadable: %v", line, err)
				continue
			}
			if !bytes.Equal(buf[:], s.shadow.lineVals[i]) {
				out.report(InvTornCommit, "datastore line %d content mismatch", line)
			}
		}
	}
}
