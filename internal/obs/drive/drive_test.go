package drive

import (
	"bytes"
	"strings"
	"testing"

	lightpc "repro"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
)

func mustSnG(t *testing.T, sc Scenario) *Result {
	t.Helper()
	res, err := SnG(sc)
	if err != nil {
		t.Fatalf("SnG: %v", err)
	}
	return res
}

// The headline contract: one seeded scenario produces identical trace,
// metrics, and table bytes on every run.
func TestSnGDeterministicBytes(t *testing.T) {
	sc := Scenario{Kind: lightpc.LightPCFull, Seed: 7}
	a, b := mustSnG(t, sc), mustSnG(t, sc)

	if ta, tb := a.ChromeTrace(), b.ChromeTrace(); !bytes.Equal(ta, tb) {
		t.Fatal("trace bytes differ between identical runs")
	}
	if pa, pb := a.Registry.PrometheusBytes(), b.Registry.PrometheusBytes(); !bytes.Equal(pa, pb) {
		t.Fatal("prometheus bytes differ between identical runs")
	}
	if ja, jb := a.Registry.JSONBytes(), b.Registry.JSONBytes(); !bytes.Equal(ja, jb) {
		t.Fatal("JSON snapshot bytes differ between identical runs")
	}
	if a.PhaseTable() != b.PhaseTable() {
		t.Fatal("phase tables differ between identical runs")
	}

	if err := obs.ValidateChromeTrace(a.ChromeTrace()); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	if err := obs.ValidatePrometheus(a.Registry.PrometheusBytes()); err != nil {
		t.Fatalf("prometheus invalid: %v", err)
	}
}

// The phase spans must reconcile exactly with the StopReport: durations
// sum to Total, and a completed default run sits inside the 16 ms ATX
// hold-up window.
func TestPhasesReconcileWithReport(t *testing.T) {
	res := mustSnG(t, Scenario{Kind: lightpc.LightPCFull, Seed: 1})
	if !res.Stop.Completed {
		t.Fatalf("default scenario missed the hold-up window: %+v", res.Stop)
	}
	if res.GoErr != nil {
		t.Fatalf("Go failed: %v", res.GoErr)
	}

	var sum sim.Duration
	for _, ph := range res.Stop.Phases {
		sum += ph.Dur
	}
	if sum != res.Stop.Total {
		t.Fatalf("stop phases sum to %v, report total %v", sum, res.Stop.Total)
	}
	if res.Stop.Budget != 16*sim.Millisecond {
		t.Fatalf("ATX budget = %v, want 16ms", res.Stop.Budget)
	}
	if res.Stop.Total > res.Stop.Budget {
		t.Fatalf("completed stop (%v) exceeds budget (%v)", res.Stop.Total, res.Stop.Budget)
	}

	sum = 0
	for _, ph := range res.Go.Phases {
		sum += ph.Dur
	}
	if sum != res.Go.Total {
		t.Fatalf("go phases sum to %v, report total %v", sum, res.Go.Total)
	}

	table := res.PhaseTable()
	for _, want := range []string{"stop/process-stop", "stop/device-stop", "stop/offline", "go/boot-check", "hold-up budget: 16.000ms"} {
		if !strings.Contains(table, want) {
			t.Fatalf("phase table missing %q:\n%s", want, table)
		}
	}
}

// A starved hold-up window must abort without a commit, name the owing
// phase, and leave the terminal budget-exceeded instant in the trace.
func TestBudgetExceededNamesOwingPhase(t *testing.T) {
	res := mustSnG(t, Scenario{Kind: lightpc.LightPCFull, Seed: 1, Holdup: 100 * sim.Microsecond})
	if res.Stop.Completed {
		t.Fatal("stop completed inside a 100us window")
	}
	if res.Stop.OverrunPhase == "" {
		t.Fatal("overrun run did not name the owing phase")
	}
	trace := string(res.ChromeTrace())
	if !strings.Contains(trace, "budget-exceeded: "+res.Stop.OverrunPhase) {
		t.Fatalf("trace missing budget-exceeded instant for phase %q", res.Stop.OverrunPhase)
	}
	if res.GoErr == nil {
		t.Fatal("recovery succeeded without a committed EP-cut")
	}
	if err := obs.ValidateChromeTrace(res.ChromeTrace()); err != nil {
		t.Fatalf("overrun trace invalid: %v", err)
	}
}

// The sweep contract: same seeds, any -j level, byte-identical artifacts.
func TestSweepParallelismInvariant(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4}
	serial, err := Sweep(Scenario{Kind: lightpc.LightPCFull}, seeds, 1)
	if err != nil {
		t.Fatalf("serial sweep: %v", err)
	}
	parallel, err := Sweep(Scenario{Kind: lightpc.LightPCFull}, seeds, 4)
	if err != nil {
		t.Fatalf("parallel sweep: %v", err)
	}

	st, pt := serial.ChromeTrace(), parallel.ChromeTrace()
	if !bytes.Equal(st, pt) {
		t.Fatal("sweep trace bytes differ between -j 1 and -j 4")
	}
	sp, pp := serial.Prometheus(), parallel.Prometheus()
	if !bytes.Equal(sp, pp) {
		t.Fatal("sweep prometheus bytes differ between -j 1 and -j 4")
	}
	if serial.PhaseTables() != parallel.PhaseTables() {
		t.Fatal("sweep phase tables differ between -j 1 and -j 4")
	}
	if err := obs.ValidateChromeTrace(st); err != nil {
		t.Fatalf("sweep trace invalid: %v", err)
	}
	if err := obs.ValidatePrometheus(sp); err != nil {
		t.Fatalf("sweep prometheus invalid: %v", err)
	}
	// One process row per cell.
	for _, want := range []string{`"name":"LightPC/seed1"`, `"name":"LightPC/seed4"`, `"pid":3`} {
		if !strings.Contains(string(st), want) {
			t.Fatalf("sweep trace missing %s", want)
		}
	}
}

// The energy sweep contract: with meters on, the per-phase joule tables
// and the exported energy gauges are byte-identical at -j 1 and -j N.
func TestSweepEnergyParallelismInvariant(t *testing.T) {
	sc := Scenario{Kind: lightpc.LightPCFull, Workload: "Redis", Energy: true}
	seeds := []uint64{1, 2, 3, 4}
	serial, err := Sweep(sc, seeds, 1)
	if err != nil {
		t.Fatalf("serial sweep: %v", err)
	}
	parallel, err := Sweep(sc, seeds, 4)
	if err != nil {
		t.Fatalf("parallel sweep: %v", err)
	}
	st, pt := serial.EnergyTables(), parallel.EnergyTables()
	if st != pt {
		t.Fatal("sweep energy tables differ between -j 1 and -j 4")
	}
	if sp, pp := serial.Prometheus(), parallel.Prometheus(); !bytes.Equal(sp, pp) {
		t.Fatal("sweep prometheus bytes (incl. energy gauges) differ between -j 1 and -j 4")
	}
	for _, want := range []string{"stop/process-stop", "go/boot-check", "hold-up feasible", "_energy_"} {
		probe := st
		if want == "_energy_" {
			probe = string(serial.Prometheus())
		}
		if !strings.Contains(probe, want) {
			t.Fatalf("energy sweep output missing %q", want)
		}
	}
}

// With Scenario.Energy unset the table degrades to an explicit notice and
// no energy series leak into the exposition.
func TestEnergyDisabledByDefault(t *testing.T) {
	res := mustSnG(t, Scenario{Kind: lightpc.LightPCFull, Seed: 1})
	if res.Energy != nil {
		t.Fatal("meters built with Scenario.Energy=false")
	}
	if !strings.Contains(res.EnergyTable(), "disabled") {
		t.Fatalf("EnergyTable() = %q, want disabled notice", res.EnergyTable())
	}
	if strings.Contains(string(res.Registry.PrometheusBytes()), "_energy_") {
		t.Fatal("energy series exported with meters off")
	}
}

// A workload-bearing scenario exports the CPU reference-stream counters
// and the PSM latency histograms, which count every PSM access.
func TestWorkloadMetricsExported(t *testing.T) {
	res := mustSnG(t, Scenario{Kind: lightpc.LightPCFull, Seed: 1, Workload: "Redis"})
	if res.Run == nil {
		t.Fatal("workload did not run")
	}
	prom := string(res.Registry.PrometheusBytes())
	for _, want := range []string{"cpu_reads_total", "psm_reads_total", "kernel_procs",
		"# TYPE psm_read_latency_seconds histogram", "# TYPE psm_write_ack_latency_seconds histogram"} {
		if !strings.Contains(prom, want) {
			t.Fatalf("metrics missing %s:\n%s", want, prom)
		}
	}
	if err := obs.ValidatePrometheus([]byte(prom)); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]string{
		{"psm_read_latency_seconds", "psm_reads_total"},
		{"psm_write_ack_latency_seconds", "psm_writes_total"},
	} {
		hist, counter := pair[0], pair[1]
		n := res.Registry.Lookup(hist).Hist().Count()
		if want := res.Registry.Lookup(counter).Value(); n == 0 || float64(n) != want {
			t.Fatalf("%s counts %d samples, %s is %v", hist, n, counter, want)
		}
	}
}

// Both OC-PMEM kinds, with and without a workload, resume each process
// at the EP-cut, and the phase table says so; LegacyPC's process state is
// volatile, so its table says the check did not run. A torn Stop cold
// boots instead: no check runs and nothing is flagged.
func TestEPCutVerified(t *testing.T) {
	for _, kind := range []lightpc.Kind{lightpc.LegacyPC, lightpc.LightPCB, lightpc.LightPCFull} {
		for _, wl := range []string{"", "Redis"} {
			res := mustSnG(t, Scenario{Kind: kind, Seed: 3, Workload: wl})
			if res.GoErr != nil || res.Diverged {
				t.Fatalf("%v/%q: GoErr=%v Diverged=%v", kind, wl, res.GoErr, res.Diverged)
			}
			want := "EP-cut verified"
			if kind == lightpc.LegacyPC {
				want = "EP-cut not checked"
			}
			if !strings.Contains(res.PhaseTable(), want) {
				t.Fatalf("%v/%q: phase table lacks %q:\n%s", kind, wl, want, res.PhaseTable())
			}
		}
	}
	torn := mustSnG(t, Scenario{Kind: lightpc.LightPCFull, Seed: 1, Holdup: 100 * sim.Microsecond})
	if table := torn.PhaseTable(); torn.GoErr == nil || torn.Diverged ||
		strings.Contains(table, "EP-cut verified") || strings.Contains(table, "MISMATCH") {
		t.Fatalf("torn stop: GoErr=%v Diverged=%v\n%s", torn.GoErr, torn.Diverged, torn.PhaseTable())
	}
}

// resumedIntact flags a saved context that differs from the state before
// Stop.
func TestResumedIntactCatchesDivergence(t *testing.T) {
	p := lightpc.New(lightpc.DefaultConfig(lightpc.LightPCFull))
	k := p.Kernel()
	k.Tick(20)
	before := k.ProcsChecksum()
	p.PowerFail(0, power.ATX())
	if _, err := p.Recover(0); err != nil {
		t.Fatal(err)
	}
	for _, pr := range k.Procs {
		if pr.State == kernel.TaskRunnable {
			pr.RestoreContext()
			pr.PC++
			pr.SaveContext()
			break
		}
	}
	if resumedIntact(k, before) {
		t.Fatal("a corrupted saved context passed the EP-cut check")
	}
}
