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

// profileCells counts the runner cells run through o's hooks: the Fig 19
// profile cells and all cells.
type profileCells struct {
	mu     sync.Mutex
	n, all int
}

func (c *profileCells) hook(o Options) Options {
	o.OnCellDone = func(label string) {
		c.mu.Lock()
		c.all++
		if strings.HasPrefix(label, "fig19/profiles/") {
			c.n++
		}
		c.mu.Unlock()
	}
	return o
}

// take returns the profile-cell and all-cell counts since the last take.
func (c *profileCells) take() (profile, all int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	profile, all = c.n, c.all
	c.n, c.all = 0, 0
	return profile, all
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
// always does, Fig 21a reuses its set at the same options and runs its own
// at other options, Figs 20 and 21 read spec footprints and run none, and
// Table II runs no cell at all. Every table reads as if each harness had
// run its own set.
func TestProfilesRunOncePerFig19(t *testing.T) {
	var cells profileCells
	o := cells.hook(QuickOptions())
	quickSpecs := len(specs(o))

	_, t19 := Fig19Persistence(o)
	_, t20 := Fig20Flush(o)
	_, t21 := Fig21Timeline(o)
	_, t21a := Fig21Series(o)
	if n, _ := cells.take(); n != quickSpecs {
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
	if n, _ := cells.take(); n != quickSpecs {
		t.Errorf("a second Fig 19 ran %d profile cells, want %d: Fig 19 must refresh the set", n, quickSpecs)
	}

	o2 := o
	o2.Seed++
	forgetProfiles()
	for _, opt := range []Options{o, o2} {
		_, t20 := Fig20Flush(opt)
		_, t21 := Fig21Timeline(opt)
		if n, _ := cells.take(); n != 0 {
			t.Errorf("Figs 20 and 21 at seed %d ran %d profile cells, want none", opt.Seed, n)
		}
		if rendered(t20) != golden(t, "fig20") || rendered(t21) != golden(t, "fig21") {
			t.Errorf("Figs 20 and 21 at seed %d differ from their goldens", opt.Seed)
		}
	}

	// With the entry holding o's set, Fig 21a at o2 must run its own.
	Fig19Persistence(o)
	cells.take()
	segs, tab := Fig21Series(o2)
	if n, _ := cells.take(); n != quickSpecs {
		t.Errorf("Fig 21a at another seed ran %d profile cells, want its own %d", n, quickSpecs)
	}
	forgetProfiles()
	wantSegs, wantTab := Fig21Series(o2)
	if !slices.Equal(segs, wantSegs) || rendered(tab) != rendered(wantTab) {
		t.Errorf("Fig 21a at seed %d = %+v, want %+v", o2.Seed, segs, wantSegs)
	}

	cells.take()
	TableII(o)
	if _, all := cells.take(); all != 0 {
		t.Errorf("Table II ran %d runner cells, want none", all)
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
	o := Options{SampleOps: 1, Seed: 2, Quick: true, Jobs: 3, Par: 4}
	k := reflect.ValueOf(o.profileKey())
	ov := reflect.ValueOf(o)
	for i := 0; i < k.NumField(); i++ {
		name := key.Field(i).Name
		if !k.Field(i).Equal(ov.FieldByName(name)) {
			t.Errorf("profileKey.%s = %v, Options.%s = %v", name, k.Field(i), name, ov.FieldByName(name))
		}
	}
}

// TestProfilesConcurrentSeeds runs Fig 21a at two seeds at once:
// whichever stores the shared set last, each must read its own seed's
// profiles.
func TestProfilesConcurrentSeeds(t *testing.T) {
	seeds := []uint64{1, 2}
	want := make([][]TimelineSegment, len(seeds))
	for i, s := range seeds {
		forgetProfiles()
		o := QuickOptions()
		o.Seed = s
		want[i], _ = Fig21Series(o)
	}
	got := make([][]TimelineSegment, len(seeds))
	var wg sync.WaitGroup
	for i, s := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := QuickOptions()
			o.Seed = s
			got[i], _ = Fig21Series(o)
		}()
	}
	wg.Wait()
	for i, s := range seeds {
		if !slices.Equal(got[i], want[i]) {
			t.Errorf("seed %d: concurrent Fig 21a = %+v, serial %+v", s, got[i], want[i])
		}
	}
}
