package crashpoint

import (
	"repro/internal/pmdk"
)

// Fork returns an independent copy of the built system, ready for its own
// CutAt: the platform is forked (lightpc.Platform.Fork), the WAL store is
// cloned, and the pool handle re-attaches to the fork's OC-PMEM without
// running recovery (the staged residue transaction must survive into the
// fork exactly as Build left it). The shadow model — checkpoint-region
// shadows included — and the pre-cut capture are frozen at the end of
// Build and never written again, so every fork shares them read-only
// instead of copying them.
//
// Forking replaces rebuilding: Build(sc) once, then Fork per cut, and every
// forked CutAt outcome is byte-identical to cutting a freshly built
// same-scenario system (pinned by TestForkVsRebuildEquivalence).
//
// Fork only reads s, apart from the atomic sharing marks the bank and
// journal clones set, so several goroutines may fork one built system at
// once; each then owns its fork.
//
// The fork carries no checkpoint.Region handles: CutAt re-registers against
// the forked bank itself, and re-registering from here would mutate bank
// state the cut is about to judge.
func (s *System) Fork() *System {
	p := s.Platform.Fork()
	return &System{
		Scenario: s.Scenario,
		Platform: p,
		Window:   s.Window,
		journal:  s.journal.Clone(),
		pool:     pmdk.Attach(p.Kernel().OCPMEM),
		poolObj:  s.poolObj,
		shadow:   s.shadow,
		pre:      s.pre,
	}
}
