package experiments

import (
	"repro/internal/persist"
	"repro/internal/report"
	"repro/internal/sim"
)

// (Fig21Timeline below gives the summary rows; Fig21Series renders the
// full 21a trajectory.)

// Fig21Row is one mechanism's power-down/power-up window (Figure 21).
type Fig21Row struct {
	Mechanism string

	DownTime   sim.Duration
	DownCycles int64 // at the 1.6 GHz ASIC clock, as the paper plots
	DownW      float64
	DownJ      float64

	UpTime   sim.Duration
	UpCycles int64
	UpW      float64
	UpJ      float64

	ColdReboot bool
}

// meanProfile is the representative benchmark of Figures 21a/21b: the
// mean of profs.
func meanProfile(profs []persist.Profile) persist.Profile {
	rep := persist.Profile{Name: "mean", DirtyFraction: 0.5}
	for _, p := range profs {
		rep.ExecTime += p.ExecTime
		rep.Instructions += p.Instructions
		rep.FootprintBytes += p.FootprintBytes
	}
	n := uint64(len(profs))
	rep.ExecTime /= sim.Duration(n)
	rep.Instructions /= n
	rep.FootprintBytes /= n
	return rep
}

// Fig21Timeline reproduces Figures 21a/21b: the consistency-control
// timeline (cycles) and dynamic power/energy across power-down and
// power-up for the four mechanisms, on the mean workload footprint.
func Fig21Timeline(o Options) ([]Fig21Row, *report.Table) {
	rep := meanProfile(specProfiles(o))
	var rows []Fig21Row
	for _, m := range persist.All() {
		out := m.Run(rep)
		rows = append(rows, Fig21Row{
			Mechanism:  m.Name(),
			DownTime:   out.FlushAtPowerDown,
			DownCycles: out.FlushAtPowerDown.ToCycles(asicHz),
			DownW:      out.PowerDownW,
			DownJ:      out.EnergyDownJ(),
			UpTime:     out.Recovery,
			UpCycles:   out.Recovery.ToCycles(asicHz),
			UpW:        out.RecoveryW,
			UpJ:        out.EnergyUpJ(),
			ColdReboot: out.ColdReboot,
		})
	}
	t := report.New("Fig 21: power-down/up timeline (cycles at 1.6 GHz)",
		"mechanism", "down cycles", "down W", "down J", "up cycles", "up W", "up J", "cold reboot")
	for _, r := range rows {
		reboot := ""
		if r.ColdReboot {
			reboot = "yes"
		}
		t.Add(r.Mechanism, report.Count(float64(r.DownCycles)), report.F(r.DownW, 1),
			report.F(r.DownJ, 3), report.Count(float64(r.UpCycles)), report.F(r.UpW, 1),
			report.F(r.UpJ, 3), reboot)
	}
	t.Note("paper: LightPC Stop 19mc @4.5W (53mJ), Go 12.8mc @4.4W (52mJ); SysPC 7bc down / 4.2bc up @ ~20W (19.7J)")
	return rows, t
}

// TimelineSegment is one phase of the Figure 21a dynamic-IPC series.
type TimelineSegment struct {
	Mechanism string
	Phase     string // run | power-down | off | cold-boot | recovery | resume
	Duration  sim.Duration
	IPC       float64
}

// Fig21Series renders the Figure 21a time series: per mechanism, the IPC
// trajectory through benchmark run → power-down preparation → off →
// (cold boot) → recovery → benchmark resumption. Dump-driven mechanisms
// show memory-bound IPC collapses in their windows; SnG's windows are
// short, CPU-bound kernel work. It plots the benchmark's run time, so it
// reads Fig 19's profiles when o matches.
func Fig21Series(o Options) ([]TimelineSegment, *report.Table) {
	rep := meanProfile(sharedProfiles(o))
	runIPC := float64(rep.Instructions) / float64(rep.ExecTime.ToCycles(asicHz))

	// dumpIPC estimates the window's IPC from the data-movement
	// instructions it retires (memory-bound copy loops).
	dumpIPC := func(bytes float64, window sim.Duration) float64 {
		if window <= 0 {
			return 0
		}
		instr := bytes / 8 * 1.5
		ipc := instr / float64(window.ToCycles(asicHz))
		if ipc > 1 {
			ipc = 1
		}
		if ipc < 0.02 {
			ipc = 0.02
		}
		return ipc
	}
	// SnG is pointer-chasing kernel work, not bulk copy: near-benchmark
	// IPC (the paper measures 0.66 down / 0.64 up).
	const sngIPC = 0.65

	var segs []TimelineSegment
	add := func(m, phase string, d sim.Duration, ipc float64) {
		segs = append(segs, TimelineSegment{Mechanism: m, Phase: phase, Duration: d, IPC: ipc})
	}
	for _, m := range persist.All() {
		out := m.Run(rep)
		name := m.Name()
		add(name, "run", rep.ExecTime/2, runIPC)
		switch name {
		case "LightPC":
			add(name, "power-down", out.FlushAtPowerDown, sngIPC)
		default:
			add(name, "power-down", out.FlushAtPowerDown,
				dumpIPC(float64(rep.FootprintBytes)*rep.DirtyFraction, out.FlushAtPowerDown))
		}
		add(name, "off", 100*sim.Millisecond, 0)
		if out.ColdReboot {
			// The IPC spike right after power recovery (Figure 21a).
			add(name, "cold-boot", 900*sim.Millisecond, 0.9)
		}
		upIPC := sngIPC
		if name != "LightPC" {
			upIPC = dumpIPC(float64(rep.FootprintBytes)*rep.DirtyFraction, out.Recovery)
		}
		add(name, "recovery", out.Recovery, upIPC)
		add(name, "resume", rep.ExecTime/2, runIPC)
	}

	t := report.New("Fig 21a: dynamic IPC across the power cycle",
		"mechanism", "phase", "duration", "cycles @1.6GHz", "IPC")
	for _, s := range segs {
		t.Add(s.Mechanism, s.Phase, report.Dur(s.Duration),
			report.Count(float64(s.Duration.ToCycles(asicHz))), report.F(s.IPC, 2))
	}
	t.Note("paper: down-prep IPC 0.5/0.23/0.30/0.66 and up IPC 0.59/0.23/0.19/0.64 for SysPC/A-CheckPC/S-CheckPC/LightPC; checkpointers spike at the cold reboot")
	return segs, t
}
