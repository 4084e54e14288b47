package experiments

import (
	"runtime"
	"sync"
	"testing"
)

// TestSerialParallelEquivalence is the runner's core contract: the full
// experiment suite rendered at -j 1 is byte-for-byte identical to the
// suite rendered at -j GOMAXPROCS (and any other worker count) — cells
// are sub-seeded by their canonical label and merged in canonical order,
// so scheduling can never leak into the tables.
func TestSerialParallelEquivalence(t *testing.T) {
	serial := QuickOptions()
	serial.Jobs = 1
	want := Render(RunAll(serial))
	if want == "" {
		t.Fatal("serial run rendered nothing")
	}

	for _, j := range []int{runtime.GOMAXPROCS(0), 2, 7} {
		par := QuickOptions()
		par.Jobs = j
		got := Render(RunAll(par))
		if got != want {
			t.Fatalf("-j %d output diverged from -j 1; first diff near:\n%s", j,
				firstDiff(got, want))
		}
	}
}

// TestProgressHooksObserveCells pins the CLI-facing progress contract:
// every cell reports a start and a matching done, concurrently safe.
func TestProgressHooksObserveCells(t *testing.T) {
	o := QuickOptions()
	o.Jobs = runtime.GOMAXPROCS(0)
	var mu sync.Mutex
	open := map[string]int{}
	starts, dones := 0, 0
	o.OnCellStart = func(label string) {
		mu.Lock()
		open[label]++
		starts++
		mu.Unlock()
	}
	o.OnCellDone = func(label string) {
		mu.Lock()
		open[label]--
		dones++
		mu.Unlock()
	}
	Fig15ExecLatency(o)
	if starts == 0 || starts != dones {
		t.Fatalf("hooks fired %d starts / %d dones", starts, dones)
	}
	for label, n := range open {
		if n != 0 {
			t.Errorf("cell %s: %d unmatched starts", label, n)
		}
	}
	// Quick mode: 4 workloads, each one cell that replays its streams on
	// the 3 platforms.
	if starts != 4 {
		t.Errorf("fig15 quick grid ran %d cells, want 4", starts)
	}
}
