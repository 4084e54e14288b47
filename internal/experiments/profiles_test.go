package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/report"
)

// These tests share the package's profile set, so none of them runs in
// parallel with another test.

// forgetProfiles empties the shared set, so the next harness call runs
// its own profiles as it would with no Fig 19 before it.
func forgetProfiles() {
	shared.mu.Lock()
	shared.profs = nil
	shared.mu.Unlock()
}

// profileCells counts the Fig 19 profile cells run through o's hooks.
type profileCells struct {
	mu sync.Mutex
	n  int
}

func (c *profileCells) hook(o Options) Options {
	o.OnCellDone = func(label string) {
		if strings.HasPrefix(label, "fig19/profiles/") {
			c.mu.Lock()
			c.n++
			c.mu.Unlock()
		}
	}
	return o
}

// take returns the count since the last take.
func (c *profileCells) take() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.n
	c.n = 0
	return n
}

func golden(t *testing.T, id string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func rendered(tab *report.Table) string { return tab.String() + "\n" }

// TestProfilesRunOncePerFig19 pins who runs the Fig 19 profiles: Fig 19
// always does, Figs 20, 21 and 21a reuse its set at the same options and
// run their own at other options, and every table reads as if each harness
// had run its own.
func TestProfilesRunOncePerFig19(t *testing.T) {
	var cells profileCells
	o := cells.hook(QuickOptions())
	quickSpecs := len(specs(o))

	_, t19 := Fig19Persistence(o)
	_, t20 := Fig20Flush(o)
	_, t21 := Fig21Timeline(o)
	_, t21a := Fig21Series(o)
	if n := cells.take(); n != quickSpecs {
		t.Errorf("Figs 19, 20, 21 and 21a ran %d profile cells, want %d (one set)", n, quickSpecs)
	}
	for id, tab := range map[string]*report.Table{"fig19": t19, "fig20": t20, "fig21": t21, "fig21a": t21a} {
		if got, want := rendered(tab), golden(t, id); got != want {
			t.Errorf("%s over the shared profiles differs from its golden:\n%s", id, firstDiff(got, want))
		}
	}

	if _, tab := Fig19Persistence(o); rendered(tab) != golden(t, "fig19") {
		t.Error("a second Fig 19 rendered a different table")
	}
	if n := cells.take(); n != quickSpecs {
		t.Errorf("a second Fig 19 ran %d profile cells, want %d: Fig 19 must refresh the set", n, quickSpecs)
	}

	o2 := o
	o2.Seed++
	rows, tab := Fig20Flush(o2)
	if n := cells.take(); n != quickSpecs {
		t.Errorf("Fig 20 at another seed ran %d profile cells, want its own %d", n, quickSpecs)
	}
	forgetProfiles()
	wantRows, wantTab := Fig20Flush(o2)
	if !slices.Equal(rows, wantRows) || rendered(tab) != rendered(wantTab) {
		t.Errorf("Fig 20 at seed %d = %+v, want %+v", o2.Seed, rows, wantRows)
	}
}

// TestProfileKeyCoversOptions fails when Options gains a field the shared
// set's key does not hold: a set run at other options would be reused.
func TestProfileKeyCoversOptions(t *testing.T) {
	skip := map[string]bool{"OnCellStart": true, "OnCellDone": true, "Par": true}
	key := reflect.TypeOf(profileKey{})
	want := 0
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Options{})) {
		if skip[f.Name] {
			continue
		}
		want++
		kf, ok := key.FieldByName(f.Name)
		if !ok || kf.Type != f.Type {
			t.Errorf("profileKey lacks Options.%s (%s)", f.Name, f.Type)
		}
	}
	if key.NumField() != want {
		t.Errorf("profileKey has %d fields, Options %d outside the hooks and Par", key.NumField(), want)
	}
	o := Options{SampleOps: 1, Seed: 2, Quick: true, Jobs: 3, Par: 4, Energy: true}
	k := reflect.ValueOf(o.profileKey())
	ov := reflect.ValueOf(o)
	for i := 0; i < k.NumField(); i++ {
		name := key.Field(i).Name
		if !k.Field(i).Equal(ov.FieldByName(name)) {
			t.Errorf("profileKey.%s = %v, Options.%s = %v", name, k.Field(i), name, ov.FieldByName(name))
		}
	}
}

// TestProfilesConcurrentSeeds runs Fig 20 at two seeds at once: whichever
// stores the shared set last, each must read its own seed's profiles.
func TestProfilesConcurrentSeeds(t *testing.T) {
	seeds := []uint64{1, 2}
	want := make([][]Fig20Row, len(seeds))
	for i, s := range seeds {
		forgetProfiles()
		o := QuickOptions()
		o.Seed = s
		want[i], _ = Fig20Flush(o)
	}
	got := make([][]Fig20Row, len(seeds))
	var wg sync.WaitGroup
	for i, s := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := QuickOptions()
			o.Seed = s
			got[i], _ = Fig20Flush(o)
		}()
	}
	wg.Wait()
	for i, s := range seeds {
		if !slices.Equal(got[i], want[i]) {
			t.Errorf("seed %d: concurrent Fig 20 = %+v, serial %+v", s, got[i], want[i])
		}
	}
}
