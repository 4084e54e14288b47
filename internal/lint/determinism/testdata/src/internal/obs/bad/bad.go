// Package bad exercises every exported-layer trigger.
package bad

import (
	"sort"
	"time"
)

func Stamp() int64 {
	t := time.Now()    // want `time\.Now in internal/obs`
	d := time.Since(t) // want `time\.Since in internal/obs`
	return t.UnixNano() + int64(d)
}

func Export(metrics map[string]uint64) []string {
	var out []string
	for name := range metrics { // want `map iteration in internal/obs`
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

type registry struct {
	byName map[string]int
}

func (r *registry) Dump() []int {
	var vals []int
	for _, v := range r.byName { // want `map iteration in internal/obs`
		vals = append(vals, v)
	}
	return vals
}
