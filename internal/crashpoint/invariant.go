// Package crashpoint is the crash-point adversary: it explores the space
// of power-cut instants systematically instead of cutting power at
// scripted points, and checks recovery invariants at every cut.
//
// Two cut engines cover the space at different granularities:
//
//   - Time-granular: a Scenario-built System is driven to an arbitrary
//     offset inside the SnG hold-up window (the deadline mechanism in
//     internal/sng IS the cut — every Stop step charges simulated time and
//     an expired deadline freezes the remaining state transitions), power
//     is dropped, recovery runs, and the invariants below are checked.
//     Bisect searches this axis for the exact commit instant; Sweep fuzzes
//     it across the workload matrix on the deterministic runner pool.
//
//   - Word-granular: a Recorder observes every OC-PMEM bank mutation and
//     reconstructs the bank image after each prefix of the write stream —
//     the exhaustive crash-state enumeration of the PM-bug literature.
//     CheckPool, CheckManager, CheckHibernate, and CheckJournal enumerate
//     the commit paths of the pmdk pool, the A-CheckPC checkpoint
//     library, the SysPC hibernation image, and the WAL store.
//
// The invariants (Section III-B's full-system-persistence contract):
//
//	I1  commit ⇒ restorable: a committed EP-cut (or transaction, or
//	    checkpoint header flip) brings back the full post-commit state.
//	I2  no commit ⇒ clean: without a commit, recovery exposes exactly the
//	    pre-cut committed state, byte-identical in the persistent regions.
//	I3  no torn EP-cut: the commit word means exactly "Stop completed";
//	    neither can exist without the other.
//	I4  no residue: state staged after the last commit is never readable
//	    through any recovery interface.
package crashpoint

import "fmt"

// Invariant names used in Violation.Invariant.
const (
	// InvTornCommit: recovery surfaced a state that is neither the last
	// committed snapshot nor the next one — a partial commit leaked.
	InvTornCommit = "torn-commit"
	// InvResidue: uncommitted (staged) state was readable after recovery.
	InvResidue = "uncommitted-residue"
	// InvLostCommit: a completed commit failed to restore.
	InvLostCommit = "lost-commit"
	// InvTornEPCut: the BCB commit word disagrees with Stop's completion.
	InvTornEPCut = "torn-ep-cut"
	// InvPreCutState: a cut changed persistent application regions that
	// only a commit is allowed to publish.
	InvPreCutState = "pre-cut-state"
	// InvRestorable: kernel-level recovery after a commit came back wrong.
	InvRestorable = "post-commit-restorable"
	// InvWedged: the machinery cannot complete a follow-up Stop/Go cycle.
	InvWedged = "recovery-wedged"
)

// Violation is one invariant breach found at a simulated power cut.
type Violation struct {
	// Cut says where the cut landed ("offset 123ps", "write 17/42").
	Cut string `json:"cut"`
	// Invariant names the broken invariant (one of the Inv* constants).
	Invariant string `json:"invariant"`
	// Detail describes what was observed versus what was expected.
	Detail string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s: %s", v.Cut, v.Invariant, v.Detail)
}

// violationf builds a Violation with a formatted detail.
func violationf(cut, invariant, format string, args ...any) Violation {
	return Violation{Cut: cut, Invariant: invariant, Detail: fmt.Sprintf(format, args...)}
}
