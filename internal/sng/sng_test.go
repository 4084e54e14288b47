package sng

import (
	"testing"
	"testing/quick"

	"repro/internal/kernel"
	"repro/internal/power"
	"repro/internal/psm"
	"repro/internal/sim"
)

// farDeadline is a deadline SnG always meets.
const farDeadline = sim.Time(10 * sim.Second)

func busySystem(seed uint64) *kernel.Kernel {
	cfg := kernel.DefaultConfig()
	cfg.Seed = seed
	k := kernel.New(cfg)
	k.Tick(20) // give processes distinctive state
	return k
}

func TestStopCompletesWithinATXSpec(t *testing.T) {
	// Section III-B: SnG finishes inside the 16 ms worst-case ATX window
	// even with the busy 120-process system.
	k := busySystem(1)
	s := New(k)
	rep := s.Stop(0, farDeadline)
	if !rep.Completed {
		t.Fatal("Stop did not complete")
	}
	spec := power.ATX().SpecHoldUp
	if sim.Duration(rep.Total) > sim.Duration(spec) {
		t.Fatalf("Stop took %v, exceeding the %v ATX spec window", rep.Total, spec)
	}
	if rep.Total < 4*sim.Millisecond {
		t.Fatalf("Stop suspiciously fast: %v (paper band is 8.6–10.5 ms)", rep.Total)
	}
}

func TestStopDecompositionShape(t *testing.T) {
	// Figure 8b: process stop ≈ 12%, device stop ≈ 38%, offline ≈ 50%.
	k := busySystem(2)
	rep := New(k).Stop(0, farDeadline)
	ps := float64(rep.ProcessStop) / float64(rep.Total)
	ds := float64(rep.DeviceStop) / float64(rep.Total)
	off := float64(rep.Offline) / float64(rep.Total)
	if ps < 0.05 || ps > 0.25 {
		t.Errorf("process stop share = %.2f, want ~0.12", ps)
	}
	if ds < 0.25 || ds > 0.55 {
		t.Errorf("device stop share = %.2f, want ~0.38", ds)
	}
	if off < 0.35 || off > 0.65 {
		t.Errorf("offline share = %.2f, want ~0.50", off)
	}
}

func TestBusySlowerThanIdle(t *testing.T) {
	busy := New(busySystem(3)).Stop(0, farDeadline)
	idleCfg := kernel.IdleConfig()
	idleCfg.Seed = 3
	ik := kernel.New(idleCfg)
	ik.Tick(20)
	idle := New(ik).Stop(0, farDeadline)
	if busy.Total <= idle.Total {
		t.Fatalf("busy Stop (%v) should exceed idle Stop (%v)", busy.Total, idle.Total)
	}
}

func TestEPCutSoundness(t *testing.T) {
	// After Stop: nothing runnable, all devices off, every core offline,
	// commit present.
	k := busySystem(4)
	rep := New(k).Stop(0, farDeadline)
	if !rep.Completed {
		t.Fatal("incomplete")
	}
	if n := k.RunnableCount(); n != 0 {
		t.Fatalf("%d tasks still runnable after Stop", n)
	}
	for _, d := range k.Devices {
		if d.State != kernel.DevOff {
			t.Fatalf("device %s in state %v after Stop", d.Name, d.State)
		}
	}
	for _, c := range k.Cores {
		if c.Online {
			t.Fatalf("core %d online after Stop", c.ID)
		}
		if c.DirtyLines != 0 {
			t.Fatalf("core %d kept %d dirty lines", c.ID, c.DirtyLines)
		}
	}
	if !k.Boot.HasCommit() {
		t.Fatal("no commit after completed Stop")
	}
	if k.PersistFlag {
		t.Fatal("persistent flag not cleared at commit")
	}
}

func TestStopGoRoundTripExactState(t *testing.T) {
	// The central property: every process resumes at the exact EP-cut.
	k := busySystem(5)
	memBefore := k.OCPMEM.Checksum()
	_ = memBefore
	s := New(k)
	rep := s.Stop(0, farDeadline)
	if !rep.Completed {
		t.Fatal("Stop incomplete")
	}
	// Capture each parked task's saved context digest.
	type snap struct {
		pid  int
		csum uint64
	}
	var want []snap
	for _, p := range k.Procs {
		if p.State == kernel.TaskUninterruptible {
			p.RestoreContext()
			want = append(want, snap{p.PID, p.Checksum()})
		}
	}
	if len(want) == 0 {
		t.Fatal("nothing was parked")
	}

	k.PowerLoss()

	grep, err := s.Go(sim.Time(0))
	if err != nil {
		t.Fatalf("Go failed: %v", err)
	}
	if grep.ResumedTasks != len(want) {
		t.Fatalf("resumed %d tasks, want %d", grep.ResumedTasks, len(want))
	}
	byPID := map[int]*kernel.Process{}
	for _, p := range k.Procs {
		byPID[p.PID] = p
	}
	for _, w := range want {
		p := byPID[w.pid]
		if p.State == kernel.TaskRunnable || p.State == kernel.TaskRunning {
			// Context is restored at schedule time; force it for
			// comparison.
			p.RestoreContext()
		} else {
			t.Fatalf("pid %d in state %v after Go", w.pid, p.State)
		}
		if p.Checksum() != w.csum {
			t.Fatalf("pid %d resumed with different state", w.pid)
		}
	}
	// Devices are back and hold their original contexts.
	for _, d := range k.Devices {
		if d.State != kernel.DevActive {
			t.Fatalf("device %s not active after Go", d.Name)
		}
		if d.Context == 0 {
			t.Fatalf("device %s lost its context", d.Name)
		}
	}
	// The system keeps running from the cut.
	k.ScheduleAll()
	k.Tick(5)
}

func TestGoWithoutCommitIsColdBoot(t *testing.T) {
	k := busySystem(6)
	s := New(k)
	k.PowerLoss()
	_, err := s.Go(0)
	if err != ErrNoCommit {
		t.Fatalf("err = %v, want ErrNoCommit", err)
	}
}

func TestCommitConsumedAfterGo(t *testing.T) {
	k := busySystem(7)
	s := New(k)
	s.Stop(0, farDeadline)
	k.PowerLoss()
	if _, err := s.Go(0); err != nil {
		t.Fatal(err)
	}
	if k.Boot.HasCommit() {
		t.Fatal("commit survived recovery")
	}
	// A second power loss without a new Stop must cold boot.
	k.PowerLoss()
	if _, err := s.Go(0); err != ErrNoCommit {
		t.Fatalf("err = %v, want ErrNoCommit", err)
	}
}

func TestDeadlineAbortsWithoutCommit(t *testing.T) {
	k := busySystem(8)
	s := New(k)
	rep := s.Stop(0, sim.Time(2*sim.Millisecond)) // far too tight
	if rep.Completed {
		t.Fatal("Stop claimed completion past the deadline")
	}
	if k.Boot.HasCommit() {
		t.Fatal("commit written despite expired deadline")
	}
	k.PowerLoss()
	if _, err := s.Go(0); err != ErrNoCommit {
		t.Fatalf("torn stop must cold boot, got %v", err)
	}
}

// A power event whose hold-up window is too short tears Stop; the rails drop
// at the window's end and the power-restore finds no commit, leaving nothing
// runnable until a cold boot.
func TestSchedulerTornStopFailsRecovery(t *testing.T) {
	k := busySystem(32)
	s := New(k)
	tiny := power.PSU{Name: "tiny", StoredJ: 0.0001, SpecHoldUp: 200 * sim.Microsecond}

	failAt := sim.Time(sim.Millisecond)
	rep := s.Stop(failAt, failAt.Add(tiny.SpecHoldUp))
	k.PowerLoss()
	if rep.Completed {
		t.Fatal("stop fit a 200 µs window?")
	}
	if _, err := s.Go(sim.Time(sim.Second)); err != ErrNoCommit {
		t.Fatalf("torn stop must cold boot, got %v", err)
	}
	for _, p := range k.Procs {
		if p.State == kernel.TaskRunning {
			t.Fatal("running process after unrecovered power loss")
		}
	}
}

// The crash-consistency property: a power failure at ANY instant during
// Stop yields either a committed, fully recoverable cut, or no commit (cold
// boot) — never a state where Go "recovers" something inconsistent.
func TestCrashConsistencyProperty(t *testing.T) {
	f := func(seed uint64, deadlineMs uint8) bool {
		k := busySystem(seed)
		s := New(k)
		deadline := sim.Time(sim.Duration(deadlineMs%20) * sim.Millisecond / 2)
		rep := s.Stop(0, deadline)
		k.PowerLoss()
		_, err := s.Go(0)
		if rep.Completed {
			return err == nil
		}
		return err == ErrNoCommit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestStopWithPSMSynchronizesMemory(t *testing.T) {
	p := psm.New(psm.DefaultConfig())
	// Leave dirty row-buffer state behind.
	now := sim.Time(0)
	for i := uint64(0); i < 200; i++ {
		now = p.Write(now, i*3)
	}
	k := busySystem(9)
	s := New(k)
	s.P = p
	rep := s.Stop(now, farDeadline)
	if !rep.Completed {
		t.Fatal("Stop incomplete")
	}
	st := p.Stats()
	if st.Flushes == 0 || st.DrainedOnFlushes == 0 {
		t.Fatalf("PSM not synchronized: %+v", st)
	}
}

func TestWearMetadataRidesTheEPCut(t *testing.T) {
	cfg := psm.DefaultConfig()
	cfg.WearLevelLines = 4096
	cfg.WearLevelThreshold = 5
	p := psm.New(cfg)
	now := sim.Time(0)
	for i := uint64(0); i < 300; i++ {
		now = p.Write(now, i%64)
	}
	preStart, preGap, preWrites, _ := p.WearLeveler().Metadata()
	k := busySystem(10)
	s := New(k)
	s.P = p
	if rep := s.Stop(now, farDeadline); !rep.Completed {
		t.Fatal("Stop incomplete")
	}
	// The metadata persisted at the EP-cut includes the writes Stop's own
	// flush performed (draining the row buffers moves the gap further).
	start0, gap0, writes0, moves0 := p.WearLeveler().Metadata()
	if writes0 <= preWrites {
		t.Fatal("Stop's flush should have programmed media writes")
	}
	_, _ = preStart, preGap
	k.PowerLoss()
	// A replacement PSM (fresh silicon after power-up) restores the wear
	// registers from the BCB via Go.
	p2 := psm.New(cfg)
	s.P = p2
	if _, err := s.Go(0); err != nil {
		t.Fatal(err)
	}
	start1, gap1, writes1, moves1 := p2.WearLeveler().Metadata()
	// Stop's own flush adds media writes after the snapshot, so compare
	// against a fresh read of what was persisted, not the live counters.
	if start1 != start0 || gap1 != gap0 {
		t.Fatalf("wear registers not restored: (%d,%d) vs (%d,%d)",
			start1, gap1, start0, gap0)
	}
	if writes1 < writes0 || moves1 < moves0 {
		t.Fatalf("wear counters went backwards: (%d,%d) vs (%d,%d)",
			writes1, moves1, writes0, moves0)
	}
}

func TestGoReportPhases(t *testing.T) {
	k := busySystem(11)
	s := New(k)
	s.Stop(0, farDeadline)
	k.PowerLoss()
	rep, err := s.Go(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BootCheck <= 0 || rep.CoreBringUp <= 0 || rep.DeviceResume <= 0 || rep.ProcessResume <= 0 {
		t.Fatalf("empty phases: %+v", rep)
	}
	if rep.Total != rep.BootCheck+rep.CoreBringUp+rep.DeviceResume+rep.ProcessResume {
		t.Fatal("phase sum != total")
	}
	if rep.ResumedDevices != len(k.Devices) {
		t.Fatalf("resumed %d devices of %d", rep.ResumedDevices, len(k.Devices))
	}
	// Go is the same order of magnitude as Stop (Fig 21: 19 mc down,
	// 12.8 mc up).
	if rep.Total > 20*sim.Millisecond {
		t.Fatalf("Go took %v", rep.Total)
	}
}

func TestScalabilityCoresAndCache(t *testing.T) {
	// Figure 22 (worst case: 730 drivers, fully dirty caches): more cores
	// and bigger caches stretch SnG; 64 cores + large cache still fit the
	// 55 ms server window.
	run := func(cores, cacheLines int) sim.Duration {
		cfg := kernel.DefaultConfig()
		cfg.Cores = cores
		cfg.Devices = 730
		cfg.CacheLinesPerCore = cacheLines
		k := kernel.New(cfg)
		for _, c := range k.Cores {
			c.DirtyLines = cacheLines // fully dirty
		}
		return New(k).Stop(0, farDeadline).Total
	}
	base := run(8, 256)
	moreCores := run(32, 256)
	bigCache := run(8, 4096)
	if moreCores <= base || bigCache <= base {
		t.Fatal("scalability dimensions have no cost")
	}
	// 64 cores, 40 MB aggregate cache (40 MB/64 B/64 cores ≈ 10240
	// lines/core) inside the 55 ms server hold-up.
	big := run(64, 10240)
	if big > 55*sim.Millisecond {
		t.Fatalf("64-core/40MB Stop = %v, exceeds server hold-up", big)
	}
	// 32 cores with 16 KB caches near the 16 ms ATX line (paper: "upto 32
	// cores ... in this worst-case scenario").
	atx := run(32, 256)
	if atx > 18*sim.Millisecond {
		t.Fatalf("32-core/16KB Stop = %v, far beyond the ATX spec", atx)
	}
}

func TestStopCounters(t *testing.T) {
	k := busySystem(12)
	before := len(k.Sleepers())
	rep := New(k).Stop(0, farDeadline)
	if rep.WokenSleepers != before {
		t.Fatalf("woke %d of %d sleepers", rep.WokenSleepers, before)
	}
	if rep.ParkedTasks != len(k.Procs) {
		t.Fatalf("parked %d of %d tasks", rep.ParkedTasks, len(k.Procs))
	}
	if rep.StoppedDevices != len(k.Devices) {
		t.Fatalf("stopped %d of %d devices", rep.StoppedDevices, len(k.Devices))
	}
	if rep.Peripherals == 0 {
		t.Fatal("no peripherals saved")
	}
}

func TestVMStateRidesTheEPCut(t *testing.T) {
	// Page tables live in OC-PMEM (persistent); Go flushes the TLBs and
	// the address spaces come back bit-identical — processes "restore the
	// virtual memory space" exactly (Section IV-C).
	k := busySystem(20)
	k.AttachVM(16, 32)
	// Warm a TLB.
	k.Cores[0].TLB.Translate(k.Procs[0].PageTable, 0, 0)
	want := k.VMChecksum()

	s := New(k)
	if rep := s.Stop(0, farDeadline); !rep.Completed {
		t.Fatal("Stop incomplete")
	}
	k.PowerLoss()
	if _, err := s.Go(0); err != nil {
		t.Fatal(err)
	}
	if k.VMChecksum() != want {
		t.Fatal("address spaces diverged across the EP-cut")
	}
	for _, c := range k.Cores {
		if c.TLB.Len() != 0 {
			t.Fatal("Go did not flush the TLBs")
		}
	}
}
