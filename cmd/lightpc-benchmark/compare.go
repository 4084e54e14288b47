package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// minPairs is how many parent/change pairs a gain needs before it counts.
const minPairs = 10

// winShare is the share of pairs the change must win for a gain.
const winShare = 0.9

// compareMain is `lightpc-benchmark compare -old DIR -new DIR`. Each DIR
// holds the saved standard output of repeated runs, one file per run; files
// are paired by name order, so run the two commits alternately and number
// the files. Every end-to-end metric of every workload found on both sides
// gets one row and a verdict.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lightpc-benchmark compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	oldDir := fs.String("old", "", "directory of saved runs of the parent commit")
	newDir := fs.String("new", "", "directory of saved runs of the change")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *oldDir == "" || *newDir == "" || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "usage: lightpc-benchmark compare -old DIR -new DIR")
		return 2
	}
	oldRuns, err := loadRuns(*oldDir)
	if err != nil {
		fmt.Fprintf(stderr, "lightpc-benchmark compare: %v\n", err)
		return 2
	}
	newRuns, err := loadRuns(*newDir)
	if err != nil {
		fmt.Fprintf(stderr, "lightpc-benchmark compare: %v\n", err)
		return 2
	}
	rows := compareRuns(oldRuns, newRuns)
	if len(rows) == 0 {
		fmt.Fprintln(stderr, "lightpc-benchmark compare: no end-to-end metric appears on both sides")
		return 2
	}
	writeRows(stdout, rows)
	for _, r := range rows {
		if r.Verdict == "worse" {
			return 1
		}
	}
	return 0
}

// runValues is one saved run: metric values keyed by "workload metric".
type runValues map[string]float64

// loadRuns parses every regular file in dir, in name order, as the output
// of one run, keeping its "metric" lines.
func loadRuns(dir string) ([]runValues, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var runs []runValues
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		rv, err := parseRun(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name(), err)
		}
		if len(rv) > 0 {
			runs = append(runs, rv)
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no runs with metric lines", dir)
	}
	return runs, nil
}

// parseRun reads the "metric <workload> <name> <value> <unit>" lines of one
// run's output.
func parseRun(r io.Reader) (runValues, error) {
	rv := runValues{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 5 || f[0] != "metric" {
			continue
		}
		v, err := strconv.ParseFloat(f[3], 64)
		if err != nil {
			return nil, fmt.Errorf("metric %s %s: %w", f[1], f[2], err)
		}
		rv[f[1]+" "+f[2]] = v
	}
	return rv, sc.Err()
}

// compareRow is one (workload, metric) verdict.
type compareRow struct {
	Workload, Metric, Unit string
	Pairs                  int
	OldMed, OldQ1, OldQ3   float64
	NewMed, NewQ1, NewQ3   float64
	Win                    float64
	Bound                  float64
	Verdict                string
}

func compareRuns(oldRuns, newRuns []runValues) []compareRow {
	seen := map[string]bool{}
	var keys []string
	for _, r := range oldRuns {
		for k := range r {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	var rows []compareRow
	for _, k := range keys {
		wl, name, _ := strings.Cut(k, " ")
		def, ok := endToEndDef(name)
		if !ok {
			continue
		}
		olds, news := collect(oldRuns, k), collect(newRuns, k)
		if len(olds) == 0 || len(news) == 0 {
			continue
		}
		row := compareRow{Workload: wl, Metric: name, Unit: def.Unit, Bound: def.Bound}
		row.OldMed, row.NewMed = median(append([]float64(nil), olds...)), median(append([]float64(nil), news...))
		row.OldQ1, row.OldQ3 = quartiles(olds)
		row.NewQ1, row.NewQ3 = quartiles(news)
		row.Verdict, row.Win, row.Pairs = verdict(olds, news, def.Better == "higher", def.Bound)
		rows = append(rows, row)
	}
	return rows
}

func endToEndDef(name string) (metricDef, bool) {
	for _, m := range endToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// collect gathers one metric's values across runs, in run order.
func collect(runs []runValues, key string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r[key]; ok {
			out = append(out, v)
		}
	}
	return out
}

// verdict applies the paired-comparison rule: a gain needs at least
// minPairs pairs, a win in winShare of them (ties count for neither side),
// and a median gap larger than the parent's interquartile range. A median
// worse than the parent's by more than bound is a regression. When the
// parent's own spread exceeds the bound the result is unresolved, unless
// every run of the change beats every run of the parent.
func verdict(olds, news []float64, higherBetter bool, bound float64) (v string, win float64, pairs int) {
	better := func(a, b float64) bool {
		if higherBetter {
			return a > b
		}
		return a < b
	}
	pairs = min(len(olds), len(news))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(news[i], olds[i]) {
			wins++
		}
	}
	win = ratio(float64(wins), float64(pairs))

	mo := median(append([]float64(nil), olds...))
	mn := median(append([]float64(nil), news...))
	q1, q3 := quartiles(olds)
	iqr := q3 - q1
	gain := mn - mo
	if !higherBetter {
		gain = -gain
	}
	allBetter := true
	for _, n := range news {
		for _, o := range olds {
			if !better(n, o) {
				allBetter = false
			}
		}
	}
	scale := math.Abs(mo)
	switch {
	case iqr > bound*scale && !allBetter:
		return "unresolved", win, pairs
	case pairs >= minPairs && win >= winShare && gain > iqr:
		return "improved", win, pairs
	case -gain > bound*scale:
		return "worse", win, pairs
	}
	return "no change", win, pairs
}

func writeRows(w io.Writer, rows []compareRow) {
	fmt.Fprintf(w, "%-12s %-16s %-4s %5s  %-34s %-34s %5s %6s  %s\n",
		"workload", "metric", "unit", "pairs", "old median [q1, q3]", "new median [q1, q3]", "win", "bound", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-16s %-4s %5d  %-34s %-34s %5.2f %6.2f  %s\n",
			r.Workload, r.Metric, r.Unit, r.Pairs,
			fmt.Sprintf("%.5g [%.5g, %.5g]", r.OldMed, r.OldQ1, r.OldQ3),
			fmt.Sprintf("%.5g [%.5g, %.5g]", r.NewMed, r.NewQ1, r.NewQ3),
			r.Win, r.Bound, r.Verdict)
	}
	if rows[0].Pairs < minPairs {
		fmt.Fprintf(w, "note: %d pairs; a gain needs at least %d alternating pairs\n", rows[0].Pairs, minPairs)
	}
}
