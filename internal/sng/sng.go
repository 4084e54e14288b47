// Package sng implements PecOS's Stop-and-Go (Sections III-B and IV): the
// mechanism that turns every non-persistent state into persistent
// information inside the PSU hold-up window (Stop → the EP-cut) and revives
// the system from that cut when power returns (Go).
//
// Stop has two phases:
//
//   - Drive-to-Idle: the core that takes the power interrupt becomes the
//     master, raises the system-wide persistent flag, traverses every alive
//     PCB (masking user tasks with TIF_SIGPENDING, waking sleepers onto
//     workers in a load-balanced way), and has the workers park every task
//     TASK_UNINTERRUPTIBLE until all cores idle.
//   - Auto-Stop: the master walks dpm_list through
//     prepare/suspend/suspend_noirq, saves peripheral MMIO into DCBs,
//     cleans the per-core kernel task pointers, offlines workers one by one
//     (register dump + cache flush), then traps into the bootloader to
//     store machine registers, the wear-leveler metadata, and the MEPC, and
//     finally writes the commit — the EP-cut — after a full memory
//     synchronization.
//
// The implementation is deadline-driven: every step charges simulated time,
// and if the power inactivation delay expires mid-way the run aborts with
// whatever partial state exists — the crash-consistency property tests
// verify that only the commit word makes a cut recoverable.
package sng

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/energy"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/psm"
	"repro/internal/sim"
)

// ErrNoCommit is returned by Go when no committed EP-cut exists: the caller
// must cold-boot instead.
var ErrNoCommit = errors.New("sng: no committed EP-cut (cold boot required)")

// epCutPC is the kernel-side re-entry point Go jumps to via the MEPC.
const epCutPC = 0x8000_2000

// SnG binds the mechanism to a system. PSM is optional; when present its
// flush port provides the real memory-synchronization time and the
// wear-leveler metadata rides the BCB.
type SnG struct {
	K *kernel.Kernel
	P *psm.PSM
	T Timing

	// Unbalanced disables Drive-to-Idle's load-balanced sleeper
	// distribution (ablation): every woken task lands on one worker.
	Unbalanced bool

	// Obs receives the SnG phase timeline: master-lane phase spans,
	// per-core worker and offline spans, the commit instant, and the
	// terminal budget-exceeded event when a run burns the hold-up window.
	// nil (the default) disables tracing at zero cost.
	Obs *obs.Tracer

	// Energy, when non-nil, is the platform's meter set: Stop and Go
	// snapshot it at every phase boundary so their reports attribute
	// joules per phase per device, and (when Obs is enabled) emit
	// cumulative counter samples onto an "energy" lane. nil (the default)
	// disables energy attribution at zero cost.
	Energy *energy.Set

	// CoreEnergy holds one meter per core (index = core id). Stop flips
	// cores to the offline state as it powers them down; Go brings the
	// master back active and workers idle. May be nil or shorter than the
	// core count — missing meters are skipped.
	CoreEnergy []*energy.Meter
}

// coreLane names core id's timeline row. Callers guard with Obs.Enabled()
// so the name concatenation is never paid with tracing off.
func coreLane(tr *obs.Tracer, id int) obs.Lane {
	return tr.Lane("core" + strconv.Itoa(id))
}

// New builds an SnG over the kernel with default timing.
func New(k *kernel.Kernel) *SnG { return &SnG{K: k, T: DefaultTiming()} }

// PhaseSpan is one contiguous named phase of a Stop or Go run, in the run's
// own timeline.
type PhaseSpan struct {
	Name  string
	Start sim.Time
	Dur   sim.Duration
}

// DeviceJ is one device's share of a phase's energy.
type DeviceJ struct {
	Device string
	J      float64
}

// PhaseEnergy attributes the joules one Stop/Go phase consumed across the
// platform's metered devices. The devices appear in meter registration
// order; J is their sum.
type PhaseEnergy struct {
	Phase    string
	J        float64
	ByDevice []DeviceJ
}

// phaseEnergy closes one phase's energy window at 'at': it syncs the meter
// set, diffs against the previous snapshot prev, and returns the phase's
// attribution plus the new snapshot. When tracing is on it also drops one
// cumulative counter sample per meter onto the "energy" lane, so Perfetto
// renders per-device joule staircases aligned with the phase spans.
func (s *SnG) phaseEnergy(name string, at sim.Time, prev []float64) (PhaseEnergy, []float64) {
	s.Energy.Sync(at)
	snap := s.Energy.SnapshotJ()
	pe := PhaseEnergy{Phase: name, ByDevice: make([]DeviceJ, 0, len(snap))}
	for i, m := range s.Energy.Meters() {
		dj := snap[i] - prev[i]
		pe.J += dj
		pe.ByDevice = append(pe.ByDevice, DeviceJ{Device: m.Name(), J: dj})
	}
	if s.Obs.Enabled() {
		energy.EmitCounters(s.Obs, at, s.Obs.Lane("energy"), s.Energy)
	}
	return pe, snap
}

// energyEpoch opens a Stop/Go energy window: the run is its own timeline,
// so every meter's integration origin is rebased to now (no charging), and
// the returned snapshot is the subtraction baseline for the first phase.
// Returns nil when energy accounting is off.
func (s *SnG) energyEpoch(now sim.Time) []float64 {
	if s.Energy == nil {
		return nil
	}
	s.Energy.Rebase(now)
	return s.Energy.SnapshotJ()
}

// coreState flips core id's meter to state st at t (no-op when the core has
// no meter).
func (s *SnG) coreState(t sim.Time, id int, st energy.State) {
	if id < len(s.CoreEnergy) {
		s.CoreEnergy[id].SetState(t, st)
	}
}

// StopReport decomposes one Stop run (Figure 8b).
type StopReport struct {
	ProcessStop sim.Duration // Drive-to-Idle
	DeviceStop  sim.Duration // dpm walk + peripherals
	Offline     sim.Duration // core offline + bootloader + commit
	Total       sim.Duration

	// Budget is the hold-up window the run was given (deadline - start).
	Budget sim.Duration

	// Phases lists the named phase spans in execution order; their
	// durations sum to Total.
	Phases []PhaseSpan

	// Energy attributes joules to each phase (one entry per Phases entry,
	// same order); nil when the SnG has no meter set attached.
	Energy []PhaseEnergy

	// Completed reports whether the commit was written before the
	// deadline.
	Completed bool

	// OverrunPhase names the phase that was charging time when the
	// deadline expired ("" when the run completed).
	OverrunPhase string

	WokenSleepers  int
	ParkedTasks    int
	StoppedDevices int
	FlushedLines   int
	Peripherals    int
}

// stopRun tracks master time against the deadline and attributes an
// overrun to the phase that burned it.
type stopRun struct {
	t        sim.Time
	deadline sim.Time
	dead     bool

	phase   string // phase currently charging time
	overrun string // phase that burned the deadline ("" while alive)
	tr      *obs.Tracer
	lane    obs.Lane
}

// spend charges d to the master timeline; it reports false once the rails
// have dropped (no further state change may be applied). The first
// overrunning spend records the owing phase and emits the terminal
// budget-exceeded event at the instant the rails dropped.
func (r *stopRun) spend(d sim.Duration) bool {
	if r.dead {
		return false
	}
	r.t = r.t.Add(d)
	if r.t.After(r.deadline) {
		r.dead = true
		r.overrun = r.phase
		if r.tr.Enabled() {
			r.tr.InstantArg(r.deadline, r.lane, "sng", "budget-exceeded: "+r.phase,
				"overdraw_ps", int64(r.t.Sub(r.deadline)))
		}
		return false
	}
	return true
}

// Stop executes Drive-to-Idle and Auto-Stop starting at now, with the power
// rails guaranteed only until deadline. State mutations are applied step by
// step, so an expired deadline leaves a realistically torn (but
// unrecoverable-by-design: no commit) system.
func (s *SnG) Stop(now, deadline sim.Time) StopReport {
	var rep StopReport
	rep.Budget = deadline.Sub(now)
	tr := s.Obs
	masterLane := tr.Lane("master")
	run := &stopRun{t: now, deadline: deadline, tr: tr, lane: masterLane}
	k := s.K
	esnap := s.energyEpoch(now)

	// ---- Drive-to-Idle -------------------------------------------------
	run.phase = "process-stop"
	phaseStart := run.t
	phaseSpan := tr.Begin(phaseStart, masterLane, "sng", "process-stop")
	if run.spend(s.T.InterruptEntry) {
		k.PersistFlag = true
	}

	// Per-worker parallel timelines.
	workers := make([]sim.Duration, len(k.Cores))
	// The master walks every alive PCB; sleepers are woken round-robin
	// across cores (balanced), user tasks get the fake-signal treatment.
	nextCore := 0
	for _, p := range k.Alive() {
		if !run.spend(s.T.PCBVisit) {
			break
		}
		if !p.Kernel {
			p.SigPending = true // TIF_SIGPENDING
		}
		if p.State == kernel.TaskSleeping {
			core := nextCore % len(k.Cores)
			nextCore++
			if s.Unbalanced {
				core = 1 % len(k.Cores)
			}
			if !run.spend(s.T.IPI) {
				break
			}
			k.WakeToCore(p, core)
			rep.WokenSleepers++
			workers[core] += s.T.WorkerReschedule
			if !p.Kernel {
				workers[core] += s.T.FakeSignal
			}
		}
	}
	// Workers park everything on their queues (running tasks included).
	if !run.dead {
		for ci, c := range k.Cores {
			tasks := 0
			if c.Current != nil {
				tasks++
			}
			tasks += len(c.RunQueue)
			workers[ci] += sim.Duration(tasks) * s.T.WorkerReschedule
		}
		// Apply the parking: every running/runnable task goes
		// TASK_UNINTERRUPTIBLE; each core ends on its idle task.
		for _, p := range k.Alive() {
			if p.State == kernel.TaskRunning || p.State == kernel.TaskRunnable {
				k.Park(p)
				rep.ParkedTasks++
			}
		}
		for _, c := range k.Cores {
			k.InstallIdle(c)
		}
		// The phase ends when the slowest worker finishes, plus the sync
		// barrier. Either spend can burn the PSU hold-up deadline; the
		// device-stop phase below observes that through run.dead.
		var wmax sim.Duration
		for _, w := range workers {
			if w > wmax {
				wmax = w
			}
		}
		if tr.Enabled() {
			// One parking span per busy worker, in parallel with the
			// master walk.
			for ci, w := range workers {
				if w > 0 {
					tr.SpanArg(phaseStart, phaseStart.Add(w), coreLane(tr, ci),
						"sng", "park", "busy_ps", int64(w))
				}
			}
		}
		if tail := wmax - run.t.Sub(phaseStart); tail <= 0 || run.spend(tail) {
			// Workers finished in time; nothing in this phase follows the
			// barrier, so its deadline verdict is deliberately discarded.
			_ = run.spend(s.T.CoreSync)
		}
	}
	rep.ProcessStop = run.t.Sub(phaseStart)
	tr.End(run.t, phaseSpan)
	rep.Phases = append(rep.Phases, PhaseSpan{"process-stop", phaseStart, rep.ProcessStop})
	if esnap != nil {
		var pe PhaseEnergy
		pe, esnap = s.phaseEnergy("process-stop", run.t, esnap)
		rep.Energy = append(rep.Energy, pe)
	}

	// ---- Auto-Stop: stopping devices ------------------------------------
	run.phase = "device-stop"
	phaseStart = run.t
	phaseSpan = tr.Begin(phaseStart, masterLane, "sng", "device-stop")
	if !run.dead {
		devLane := tr.Lane("devices")
		for _, d := range k.Devices {
			devStart := run.t
			if !run.spend(d.PrepareCost) {
				break
			}
			if err := d.Prepare(); err != nil {
				panic(fmt.Sprintf("sng: dpm order violated: %v", err))
			}
			if !run.spend(d.SuspendCost) {
				break
			}
			if err := d.Suspend(); err != nil {
				panic(fmt.Sprintf("sng: dpm order violated: %v", err))
			}
			if !run.spend(d.NoIrqCost) {
				break
			}
			if err := d.SuspendNoIrq(k.OCPMEM); err != nil {
				panic(fmt.Sprintf("sng: dpm order violated: %v", err))
			}
			rep.StoppedDevices++
			if d.Peripheral {
				if !run.spend(s.T.PeripheralSave) {
					break
				}
				rep.Peripherals++
			}
			tr.Span(devStart, run.t, devLane, "sng", d.Name)
		}
	}
	rep.DeviceStop = run.t.Sub(phaseStart)
	tr.End(run.t, phaseSpan)
	rep.Phases = append(rep.Phases, PhaseSpan{"device-stop", phaseStart, rep.DeviceStop})
	if esnap != nil {
		var pe PhaseEnergy
		pe, esnap = s.phaseEnergy("device-stop", run.t, esnap)
		rep.Energy = append(rep.Energy, pe)
	}

	// ---- Auto-Stop: drawing the EP-cut ----------------------------------
	run.phase = "offline"
	phaseStart = run.t
	phaseSpan = tr.Begin(phaseStart, masterLane, "sng", "offline")
	if !run.dead {
		// Clean the kernel task pointers so recovered cores synchronize.
		for _, c := range k.Cores {
			if !run.spend(s.T.TaskPtrClean) {
				break
			}
			c.KTaskPtr, c.KStackPtr = 0, 0
		}
	}
	if !run.dead {
		// Workers offline one by one: dump registers, flush the cache,
		// power down (master IPIs each).
		for ci, c := range k.Cores[1:] {
			offStart := run.t
			if !run.spend(s.T.IPI + s.T.RegisterDump) {
				break
			}
			k.Boot.SaveCoreRegisters(c)
			dirty := c.DirtyLines
			flush := sim.Duration(dirty) * s.T.FlushPerLine
			if !run.spend(flush + s.T.CoreOffline) {
				break
			}
			rep.FlushedLines += dirty
			c.DirtyLines = 0
			c.Online = false
			s.coreState(run.t, ci+1, energy.CPUOffline)
			if tr.Enabled() {
				tr.SpanArg(offStart, run.t, coreLane(tr, ci+1),
					"sng", "offline", "flushed_lines", int64(dirty))
			}
		}
	}
	if !run.dead {
		// Master: exception into the bootloader; store its machine
		// registers; flush its cache; synchronize memory; record wear
		// metadata and the MEPC; commit.
		master := k.Cores[0]
		if run.spend(s.T.BootloaderJump + s.T.RegisterDump) {
			k.Boot.SaveCoreRegisters(master)
			flush := sim.Duration(master.DirtyLines) * s.T.FlushPerLine
			if run.spend(flush) {
				rep.FlushedLines += master.DirtyLines
				master.DirtyLines = 0

				sync := s.T.MemSync
				if s.P != nil {
					end := s.P.Flush(run.t)
					sync += end.Sub(run.t)
				}
				if run.spend(sync) {
					if s.P != nil {
						if wl := s.P.WearLeveler(); wl != nil {
							a, b, c, d := wl.Metadata()
							k.Boot.SaveWearMeta([4]uint64{a, b, c, d})
						}
					}
					k.Boot.SetMEPC(epCutPC)
					k.PersistFlag = false
					if run.spend(s.T.BCBWrite) {
						k.Boot.Commit()
						master.Online = false
						s.coreState(run.t, 0, energy.CPUOffline)
						rep.Completed = true
						tr.Instant(run.t, run.lane, "sng", "commit")
					}
				}
			}
		}
	}
	rep.Offline = run.t.Sub(phaseStart)
	tr.End(run.t, phaseSpan)
	rep.Phases = append(rep.Phases, PhaseSpan{"offline", phaseStart, rep.Offline})
	if esnap != nil {
		pe, _ := s.phaseEnergy("offline", run.t, esnap)
		rep.Energy = append(rep.Energy, pe)
	}
	rep.Total = rep.ProcessStop + rep.DeviceStop + rep.Offline
	rep.OverrunPhase = run.overrun
	return rep
}

// GoReport decomposes one recovery.
type GoReport struct {
	BootCheck     sim.Duration
	CoreBringUp   sim.Duration
	DeviceResume  sim.Duration
	ProcessResume sim.Duration
	Total         sim.Duration

	// Phases lists the named phase spans in execution order; their
	// durations sum to Total.
	Phases []PhaseSpan

	// Energy attributes joules to each phase (one entry per Phases entry,
	// same order); nil when the SnG has no meter set attached.
	Energy []PhaseEnergy

	ResumedTasks   int
	ResumedDevices int
}

// Go recovers the system from a committed EP-cut starting at now. It
// returns ErrNoCommit when no cut exists (cold boot path: pass control to
// start_kernel instead).
func (s *SnG) Go(now sim.Time) (GoReport, error) {
	var rep GoReport
	k := s.K
	tr := s.Obs
	masterLane := tr.Lane("master")
	t := now
	esnap := s.energyEpoch(now)

	// Phase 0: bootloader checks the Stop commit.
	bootSpan := tr.Begin(now, masterLane, "sng", "boot-check")
	t = t.Add(s.T.BootCheck)
	if !k.Boot.HasCommit() {
		rep.BootCheck = t.Sub(now)
		tr.End(t, bootSpan)
		rep.Phases = append(rep.Phases, PhaseSpan{"boot-check", now, rep.BootCheck})
		if esnap != nil {
			pe, _ := s.phaseEnergy("boot-check", t, esnap)
			rep.Energy = append(rep.Energy, pe)
		}
		rep.Total = rep.BootCheck
		return rep, ErrNoCommit
	}
	// Restore BCB into the master; boost to machine mode.
	t = t.Add(s.T.BCBRestore)
	master := k.Cores[0]
	master.Online = true
	s.coreState(t, 0, energy.CPUActive)
	k.Boot.RestoreCoreRegisters(master)
	if mepc := k.Boot.MEPC(); mepc != epCutPC {
		return rep, fmt.Errorf("sng: corrupt BCB: MEPC %#x", mepc)
	}
	rep.BootCheck = t.Sub(now)
	tr.End(t, bootSpan)
	rep.Phases = append(rep.Phases, PhaseSpan{"boot-check", now, rep.BootCheck})
	if esnap != nil {
		var pe PhaseEnergy
		pe, esnap = s.phaseEnergy("boot-check", t, esnap)
		rep.Energy = append(rep.Energy, pe)
	}

	// Phase 1: power workers up one by one; they wait on the task
	// pointers until the master hands them the idle task.
	phase := t
	phaseSpan := tr.Begin(phase, masterLane, "sng", "core-bring-up")
	for ci, c := range k.Cores[1:] {
		up := t
		t = t.Add(s.T.CoreBringUp + s.T.IPI)
		c.Online = true
		k.Boot.RestoreCoreRegisters(c)
		c.KTaskPtr = 0xCAFE0000 + uint64(c.ID)
		c.KStackPtr = 0xBEEF0000 + uint64(c.ID)
		c.Idle = true
		s.coreState(t, ci+1, energy.CPUIdle)
		if tr.Enabled() {
			tr.Span(up, t, coreLane(tr, ci+1), "sng", "bring-up")
		}
	}
	rep.CoreBringUp = t.Sub(phase)
	tr.End(t, phaseSpan)
	rep.Phases = append(rep.Phases, PhaseSpan{"core-bring-up", phase, rep.CoreBringUp})
	if esnap != nil {
		var pe PhaseEnergy
		pe, esnap = s.phaseEnergy("core-bring-up", t, esnap)
		rep.Energy = append(rep.Energy, pe)
	}

	// Phase 2: revive devices in inverse dpm order.
	phase = t
	phaseSpan = tr.Begin(phase, masterLane, "sng", "device-resume")
	for i := len(k.Devices) - 1; i >= 0; i-- {
		d := k.Devices[i]
		if d.State != kernel.DevOff {
			continue
		}
		t = t.Add(d.ResumeCost)
		if err := d.ResumeNoIrq(k.OCPMEM); err != nil {
			return rep, err
		}
		if d.Peripheral {
			t = t.Add(s.T.MMIORestore)
		}
		if err := d.Resume(); err != nil {
			return rep, err
		}
		if err := d.Complete(); err != nil {
			return rep, err
		}
		rep.ResumedDevices++
	}
	rep.DeviceResume = t.Sub(phase)
	tr.End(t, phaseSpan)
	rep.Phases = append(rep.Phases, PhaseSpan{"device-resume", phase, rep.DeviceResume})
	if esnap != nil {
		var pe PhaseEnergy
		pe, esnap = s.phaseEnergy("device-resume", t, esnap)
		rep.Energy = append(rep.Energy, pe)
	}

	// Phase 3: restore wear-leveler state, charge the per-core TLB flush,
	// requeue tasks (kernel threads first, then user), and schedule.
	phase = t
	phaseSpan = tr.Begin(phase, masterLane, "sng", "process-resume")
	if s.P != nil {
		if wl := s.P.WearLeveler(); wl != nil {
			m := k.Boot.WearMeta()
			wl.Restore(m[0], m[1], m[2], m[3])
		}
	}
	t = t.Add(sim.Duration(len(k.Cores)) * s.T.TLBFlush)
	// Parallel requeue across cores: charge the slowest queue.
	perCore := make([]sim.Duration, len(k.Cores))
	requeue := func(wantKernel bool) {
		for _, p := range k.Procs {
			if p.State != kernel.TaskUninterruptible || p.Kernel != wantKernel {
				continue
			}
			k.Unpark(p)
			p.SigPending = false
			core := p.CoreID
			if core < 0 || core >= len(k.Cores) {
				core = 0
			}
			perCore[core] += s.T.TaskReschedule
			rep.ResumedTasks++
		}
	}
	requeue(true)
	requeue(false)
	var slowest sim.Duration
	for _, d := range perCore {
		if d > slowest {
			slowest = d
		}
	}
	t = t.Add(slowest)
	k.ScheduleAll()
	// Recovery is done; consume the commit so the next power event needs
	// a fresh EP-cut.
	k.Boot.ClearCommit()
	rep.ProcessResume = t.Sub(phase)
	tr.End(t, phaseSpan)
	rep.Phases = append(rep.Phases, PhaseSpan{"process-resume", phase, rep.ProcessResume})
	if esnap != nil {
		pe, _ := s.phaseEnergy("process-resume", t, esnap)
		rep.Energy = append(rep.Energy, pe)
	}
	rep.Total = t.Sub(now)
	return rep, nil
}
