// Package drive runs instrumented LightPC scenarios for the observability
// tooling: it assembles a platform, attaches a tracer and a metrics
// registry to every layer that accepts one, executes a seeded
// workload + power-failure + recovery sequence, and hands back the
// instruments alongside the SnG reports.
//
// Everything here inherits the repo's determinism contract: a scenario's
// bytes (trace JSON, Prometheus text, phase table) are a pure function of
// its Scenario values, and Sweep merges per-cell instruments in canonical
// cell order so output is identical at any -j level.
package drive

import (
	"fmt"
	"strings"

	lightpc "repro"
	"repro/internal/energy"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/sng"
	"repro/internal/workload"
)

// Scenario parameterizes one instrumented power-failure run.
type Scenario struct {
	Kind lightpc.Kind

	Seed        uint64
	Cores       int
	UserProcs   int
	KernelProcs int
	Devices     int

	// Ticks pre-ages the kernel scheduler before the power event.
	Ticks int

	// Workload optionally names a Table II spec to execute before the
	// power failure ("" skips the workload phase).
	Workload string

	// PSU selects the supply ("atx" default, or "server"); Holdup
	// overrides its spec hold-up window when non-zero.
	PSU    string
	Holdup sim.Duration

	// Energy attaches per-device joule meters to the platform: the SnG
	// reports carry per-phase attribution, the registry exports the
	// meters, and EnergyTable renders the breakdown.
	Energy bool
}

// withDefaults fills the zero values with the lightpc-obs flag defaults.
func (sc Scenario) withDefaults() Scenario {
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	if sc.Cores <= 0 {
		sc.Cores = 8
	}
	if sc.UserProcs <= 0 {
		sc.UserProcs = 72
	}
	if sc.KernelProcs <= 0 {
		sc.KernelProcs = 48
	}
	if sc.Devices <= 0 {
		sc.Devices = 250
	}
	if sc.Ticks <= 0 {
		sc.Ticks = 20
	}
	if sc.PSU == "" {
		sc.PSU = "atx"
	}
	return sc
}

// window resolves the hold-up budget.
func (sc Scenario) window() (power.PSU, sim.Duration, error) {
	psu, err := power.PSUByName(sc.PSU)
	if err != nil {
		return psu, 0, fmt.Errorf("drive: %w", err)
	}
	w := sim.Duration(psu.SpecHoldUp)
	if sc.Holdup > 0 {
		w = sc.Holdup
	}
	return psu, w, nil
}

// Result bundles one scenario's reports with the instruments that
// recorded them.
type Result struct {
	Scenario Scenario

	Run   *lightpc.RunResult // nil when no workload ran
	Stop  sng.StopReport
	Go    sng.GoReport
	GoErr error

	// Diverged reports a failed EP-cut check: Go succeeded, but the
	// resumed processes' state differs from just before Stop. The check
	// does not run on LegacyPC, whose process state lives in DRAM that the
	// power loss wipes.
	Diverged bool

	Tracer   *obs.Tracer
	Registry *obs.Registry

	// Energy is the platform's meter set (nil unless Scenario.Energy);
	// Supply is the resolved PSU, whose stored joules bound the Stop run.
	Energy *energy.Set
	Supply power.PSU
}

// SnG executes one instrumented scenario: build the platform, wire the
// observability layer through it, optionally run the workload, age the
// scheduler, pull the power against the hold-up window, recover, and check
// that every process resumed at the EP-cut.
func SnG(sc Scenario) (*Result, error) {
	return run(sc, "")
}

// run is SnG with a metric-name prefix, so Sweep cells merge into one
// Prometheus document without name collisions.
func run(sc Scenario, prefix string) (*Result, error) {
	sc = sc.withDefaults()
	psu, window, err := sc.window()
	if err != nil {
		return nil, err
	}

	cfg := lightpc.DefaultConfig(sc.Kind)
	cfg.Seed = sc.Seed
	cfg.CPU.Cores = sc.Cores
	cfg.Kernel.Cores = sc.Cores
	cfg.Kernel.UserProcs = sc.UserProcs
	cfg.Kernel.KernelProcs = sc.KernelProcs
	cfg.Kernel.Devices = sc.Devices
	cfg.Energy = sc.Energy
	p := lightpc.New(cfg)

	res := &Result{
		Scenario: sc,
		Tracer:   obs.NewTracer(),
		Registry: obs.NewRegistry(),
		Energy:   p.Energy(),
		Supply:   psu,
	}
	p.SnG().Obs = res.Tracer
	energy.RegisterSet(res.Registry, prefix+"energy_", res.Energy)
	if ps := p.PSM(); ps != nil {
		ps.SetTracer(res.Tracer)
		ps.RegisterMetrics(res.Registry, prefix+"psm_")
	}
	if d := p.DRAM(); d != nil {
		d.RegisterMetrics(res.Registry, prefix+"dram_")
	}
	p.Kernel().RegisterMetrics(res.Registry, prefix+"kernel_")

	if sc.Workload != "" {
		spec, ok := workload.ByName(sc.Workload)
		if !ok {
			return nil, fmt.Errorf("drive: unknown workload %q", sc.Workload)
		}
		rr := p.Run(spec)
		res.Run = &rr
		obs.RegisterTraceStats(res.Registry, prefix+"cpu_", &rr.Stats)
	}

	p.Kernel().Tick(sc.Ticks)
	before := p.Kernel().ProcsChecksum()

	// PowerFail with the (possibly overridden) window, then Go at the
	// same origin the CLI uses.
	res.Stop = p.SnG().Stop(0, sim.Time(window))
	p.Kernel().PowerLoss()
	res.Go, res.GoErr = p.Recover(0)
	if res.GoErr == nil && sc.Kind != lightpc.LegacyPC {
		res.Diverged = !resumedIntact(p.Kernel(), before)
	}
	return res, nil
}

// resumedIntact restores the saved context of every runnable or running
// process and reports whether the process table matches want, its
// checksum from just before Stop. RestoreContext only reads the bank, so
// the check moves no metric.
func resumedIntact(k *kernel.Kernel, want uint64) bool {
	for _, pr := range k.Procs {
		if pr.State == kernel.TaskRunnable || pr.State == kernel.TaskRunning {
			pr.RestoreContext()
		}
	}
	return k.ProcsChecksum() == want
}

// PhaseTable renders the run's SnG decomposition as an aligned table:
// every Stop and Go phase with its start, duration, and share of the
// hold-up budget.
func (res *Result) PhaseTable() string {
	sc := res.Scenario
	t := report.New(
		fmt.Sprintf("SnG phase timeline — %s, seed %d", sc.Kind, sc.Seed),
		"phase", "start", "duration", "share of budget")
	budget := res.Stop.Budget
	share := func(d sim.Duration) string {
		if budget <= 0 {
			return "-"
		}
		return report.Pct(float64(d) / float64(budget))
	}
	for _, ph := range res.Stop.Phases {
		t.Add("stop/"+ph.Name, report.Dur(ph.Start.Sub(0)), report.Dur(ph.Dur), share(ph.Dur))
	}
	t.Add("stop/total", report.Dur(0), report.Dur(res.Stop.Total), share(res.Stop.Total))
	for _, ph := range res.Go.Phases {
		t.Add("go/"+ph.Name, report.Dur(ph.Start.Sub(0)), report.Dur(ph.Dur), "-")
	}
	t.Add("go/total", report.Dur(0), report.Dur(res.Go.Total), "-")

	t.Note("hold-up budget: %v (%s)", budget, sc.PSU)
	if res.Stop.Completed {
		t.Note("EP-cut committed %v before the rails dropped", budget-res.Stop.Total)
	} else {
		t.Note("budget exceeded in phase %q — no EP-cut, recovery cold boots", res.Stop.OverrunPhase)
	}
	switch {
	case res.GoErr != nil:
		t.Note("Go: %v", res.GoErr)
	case sc.Kind == lightpc.LegacyPC:
		t.Note("EP-cut not checked: LegacyPC keeps process state in volatile DRAM")
	case res.Diverged:
		t.Note("EP-cut MISMATCH: resumed process state diverged from before Stop")
	default:
		t.Note("EP-cut verified: every process resumed with identical state")
	}
	return t.String()
}

// EnergyTable renders the run's per-phase per-device joule attribution in
// milli-joules: one row per SnG phase, one column per metered device with
// the per-core meters folded into a single "cores" column, plus a hold-up
// feasibility note checking the Stop path's measured draw against the
// PSU's stored energy.
func (res *Result) EnergyTable() string {
	if res.Energy == nil {
		return "energy accounting disabled (Scenario.Energy=false)\n"
	}
	meters := res.Energy.Meters()
	// Column layout: non-core meters keep their own column, all core
	// meters share one, and the row closes with the phase total.
	cols := []string{"phase"}
	colOf := make([]int, len(meters))
	coresCol := -1
	for i, m := range meters {
		if strings.HasPrefix(m.Name(), "core") {
			if coresCol < 0 {
				coresCol = len(cols)
				cols = append(cols, "cores mJ")
			}
			colOf[i] = coresCol
			continue
		}
		colOf[i] = len(cols)
		cols = append(cols, m.Name()+" mJ")
	}
	cols = append(cols, "total mJ")
	sc := res.Scenario
	t := report.New(
		fmt.Sprintf("SnG energy attribution — %s, seed %d", sc.Kind, sc.Seed), cols...)

	var stopJ float64
	row := func(prefix string, ph sng.Phase) {
		vals := make([]float64, len(cols))
		for i, dj := range ph.ByDevice {
			vals[colOf[i]] += dj.J
		}
		cells := make([]string, 0, len(cols))
		cells = append(cells, prefix+ph.Name)
		for _, v := range vals[1 : len(cols)-1] {
			cells = append(cells, report.F(v*1e3, 4))
		}
		cells = append(cells, report.F(ph.J*1e3, 4))
		t.Add(cells...)
	}
	for _, ph := range res.Stop.Phases {
		row("stop/", ph)
		stopJ += ph.J
	}
	for _, ph := range res.Go.Phases {
		row("go/", ph)
	}

	if res.Supply.StoredJ > 0 {
		verdict := "feasible"
		if stopJ > res.Supply.StoredJ {
			verdict = "INFEASIBLE"
		}
		t.Note("stop path drew %s mJ of the %s PSU's %s mJ stored (%s) — hold-up %s",
			report.F(stopJ*1e3, 4), res.Supply.Name,
			report.F(res.Supply.StoredJ*1e3, 1),
			report.Pct(stopJ/res.Supply.StoredJ), verdict)
	}
	t.Note("cumulative device energy (workload + stop + go): %s mJ",
		report.F(res.Energy.TotalJ()*1e3, 4))
	return t.String()
}

// ChromeTrace renders the run's tracer as one Chrome trace-event document.
func (res *Result) ChromeTrace() []byte {
	return obs.ChromeTraceBytes([]string{res.label()}, res.Tracer)
}

// label names the run for trace process rows and sweep cells.
func (res *Result) label() string {
	return fmt.Sprintf("%s/seed%d", res.Scenario.Kind, res.Scenario.Seed)
}

// SweepResult is a set of per-seed results merged in canonical order.
type SweepResult struct {
	Cells []*Result
}

// Sweep runs the scenario once per seed on a deterministic worker pool
// (jobs ≤ 0 means GOMAXPROCS, 1 forces serial) and returns the cells in
// seed order — the same bytes at any parallelism.
func Sweep(base Scenario, seeds []uint64, jobs int) (*SweepResult, error) {
	cells := make([]runner.Cell[*Result], len(seeds))
	errs := make([]error, len(seeds))
	for i, seed := range seeds {
		i, seed := i, seed
		sc := base
		sc.Seed = seed
		cells[i] = runner.Cell[*Result]{
			Label: fmt.Sprintf("sng/seed%d", seed),
			Run: func() *Result {
				r, err := run(sc, fmt.Sprintf("cell%d_", i))
				errs[i] = err
				return r
			},
		}
	}
	out := runner.Run(runner.Pool{Workers: jobs}, cells)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	sw := &SweepResult{Cells: out}
	for i, c := range sw.Cells {
		c.Tracer.SetPid(i)
	}
	return sw, nil
}

// ChromeTrace merges every cell's tracer into one document, one process
// per cell, in cell order.
func (s *SweepResult) ChromeTrace() []byte {
	names := make([]string, len(s.Cells))
	tracers := make([]*obs.Tracer, len(s.Cells))
	for i, c := range s.Cells {
		names[i] = c.label()
		tracers[i] = c.Tracer
	}
	return obs.ChromeTraceBytes(names, tracers...)
}

// Prometheus concatenates the per-cell registries in cell order. Cell
// metric names carry a cell<i>_ prefix, so families never collide.
func (s *SweepResult) Prometheus() []byte {
	var b strings.Builder
	for _, c := range s.Cells {
		b.Write(c.Registry.PrometheusBytes())
	}
	return []byte(b.String())
}

// PhaseTables renders every cell's phase table in cell order.
func (s *SweepResult) PhaseTables() string {
	var b strings.Builder
	for i, c := range s.Cells {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(c.PhaseTable())
	}
	return b.String()
}

// EnergyTables renders every cell's energy table in cell order.
func (s *SweepResult) EnergyTables() string {
	var b strings.Builder
	for i, c := range s.Cells {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(c.EnergyTable())
	}
	return b.String()
}
