// Package mo exercises every order-sensitive map-range trigger.
package mo

import (
	"fmt"
	"strings"

	"sim"
)

func BadFormat(m map[string]int) string {
	var b strings.Builder
	for k, v := range m { // want `range over map formats output in host-random order`
		fmt.Fprintf(&b, "%s=%d\n", k, v)
	}
	return b.String()
}

func BadAppendRows(m map[string]float64) [][]string {
	var rows [][]string
	for k, v := range m { // want `range over map`
		rows = append(rows, []string{k, fmt.Sprint(v)})
	}
	return rows
}

func BadWriter(m map[uint64]uint64, w *strings.Builder) {
	for k := range m { // want `range over map`
		w.WriteString(fmt.Sprint(k))
	}
}

// BadTiming threads a simulated timestamp through calls made in map
// order: the timeline becomes host-random.
func BadTiming(m map[uint64]struct{}, at sim.Time, write func(sim.Time, uint64) sim.Time) sim.Time {
	for line := range m { // want `range over map advances simulated time in host-random order`
		at = write(at, line*64)
	}
	return at
}

func BadCollectNoSort(m map[string]int) []string {
	var keys []string
	for k := range m { // want `map keys collected into a slice that is never sorted`
		keys = append(keys, k)
	}
	return keys
}
