package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// hostShares buckets a CPU profile's flat samples by the package of each
// sample's leaf frame, in percent of all samples. It reads the profile
// through `go tool pprof -top`, so it needs the go command on PATH and no
// extra dependency. sum is the share the listed rows account for (100 when
// pprof dropped nothing).
func hostShares(profile string) (shares map[string]float64, sum float64, err error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0",
		"-nodefraction=0", "-edgefraction=0", "-unit=ms", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parsePprofTop(out)
}

// parsePprofTop reads `pprof -top` text: a "Showing nodes accounting for
// X, P% of T total" header, then one row per function whose first column
// is its flat time and whose sixth is its name.
func parsePprofTop(text []byte) (shares map[string]float64, sum float64, err error) {
	var total time.Duration
	flat := map[string]time.Duration{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "% of "); i >= 0 && strings.HasSuffix(line, " total") {
			t := strings.TrimSuffix(line[i+len("% of "):], " total")
			if total, err = time.ParseDuration(t); err != nil {
				return nil, 0, fmt.Errorf("pprof total %q: %w", t, err)
			}
			continue
		}
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		d, err := time.ParseDuration(f[0])
		if err != nil {
			continue // the column header
		}
		flat[bucketOf(f[5])] += d
	}
	if total <= 0 {
		// An empty profile (a run too short for one sample) has no shares.
		return map[string]float64{}, 0, nil
	}
	shares = map[string]float64{}
	for pkg, d := range flat {
		shares[pkg] = 100 * float64(d) / float64(total)
		sum += shares[pkg]
	}
	return shares, sum, nil
}

// bucketOf maps a profiled function name to its host_share bucket: the
// simulator package under repro/internal/, the Go runtime, or other.
func bucketOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "runtime."), strings.HasPrefix(fn, "runtime/"),
		strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(fn, "repro/internal/"):
		rest := fn[len("repro/internal/"):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		for _, pkg := range hostSharePkgs {
			if pkg == rest {
				return pkg
			}
		}
	}
	return "other"
}
