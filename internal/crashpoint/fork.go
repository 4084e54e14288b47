package crashpoint

import (
	"slices"

	"repro/internal/pmdk"
)

// Fork returns an independent copy of the built system, ready for its own
// CutAt: the platform is deep-forked (lightpc.Platform.Fork), the WAL store
// and its block device are cloned, the pool handle re-attaches to the
// fork's OC-PMEM without running recovery (the staged residue transaction
// must survive into the fork exactly as Build left it), and the
// checkpoint-region shadows are copied. The shadow model and the pre-cut
// capture are frozen at the end of Build and never written again, so every
// fork shares them read-only instead of copying them.
//
// Forking replaces rebuilding: Build(sc) once, then Fork per cut, and every
// forked CutAt outcome is byte-identical to cutting a freshly built
// same-scenario system (pinned by TestForkVsRebuildEquivalence).
//
// The fork carries no checkpoint.Region handles: CutAt re-registers against
// the forked bank itself, and re-registering from here would mutate bank
// state the cut is about to judge. The ckpt entries keep only their shadow
// data (name, live, committed).
func (s *System) Fork() *System {
	p := s.Platform.Fork()
	out := &System{
		Scenario: s.Scenario,
		Platform: p,
		Window:   s.Window,
		journal:  s.journal.Clone(),
		pool:     pmdk.Attach(p.Kernel().OCPMEM),
		poolObj:  s.poolObj,
		shadow:   s.shadow,
		pre:      s.pre,
	}
	for _, r := range s.ckpt {
		out.ckpt = append(out.ckpt, &sysRegion{
			name:      r.name,
			live:      slices.Clone(r.live),
			committed: slices.Clone(r.committed),
		})
	}
	return out
}
