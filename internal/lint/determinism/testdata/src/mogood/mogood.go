// Package mogood must produce no determinism diagnostics.
package mogood

import (
	"fmt"
	"sort"
)

// The sanctioned idiom: collect, sort, then range over the slice.
func Render(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, fmt.Sprintf("%s=%d", k, m[k]))
	}
	return out
}

// Commutative bodies are order-independent and stay silent.
func Count(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}

func Total(m map[string]int) int {
	sum := 0
	for _, v := range m {
		sum += v
	}
	return sum
}

func Copy(dst, src map[uint64]uint64) {
	for k, v := range src {
		dst[k] = v
	}
}

// Checksum mirrors kernel.PageTable.Checksum: an order-independent XOR
// fold needs no sorting.
func Checksum(m map[uint64]uint64) uint64 {
	var h uint64 = 1469598103934665603
	for v, p := range m {
		h ^= v*0x9E3779B97F4A7C15 ^ p
	}
	return h
}

// DebugDump accepts order instability explicitly.
func DebugDump(m map[string]int) []string {
	var out []string
	for k, v := range m { //lint:allow determinism debug dump, order never asserted
		out = append(out, fmt.Sprintf("%s=%d", k, v))
	}
	return out
}
