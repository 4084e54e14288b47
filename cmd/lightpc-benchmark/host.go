package main

import (
	"math"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// hostRef is a fixed piece of work, independent of the simulator, that a run
// times about once a second to measure how fast the host is at that moment.
// On a shared 2-CPU cloud host the same code runs up to 1.5× faster or
// slower for stretches of ten seconds to minutes as the neighbours' load
// changes clock speed and cache contention (there is almost no steal time),
// so a half-minute run can fall wholly inside a fast or a slow stretch. The
// three kernels stand for what the simulator's speed depends on: map
// inserts and lookups (hashing, allocation, L2), sorting (branchy integer
// code) and a pointer chase over 32 MB (L3 latency). Across ten 25-second
// runs of each workload, scaling every op by the geometric mean of their
// times cut the interquartile range of ops_per_s from 8–20% of the median to
// 3–7%.
type hostRef struct {
	m     map[uint64]uint64
	keys  []uint64
	chase []uint32 // one random cycle through every index
}

const (
	refMapKeys    = 1 << 16
	refSortKeys   = 1 << 15
	refChaseBytes = 32 << 20
	refChaseSteps = 1 << 16
)

// theHostRef is built once per process: its 32 MB cycle takes a tenth of a
// second to build.
var theHostRef *hostRef

// newHostRef returns the process's reference work, building it on first
// use. The chase array is mapped outside the Go heap, so it does not change
// how often the collector runs during the simulator's ops.
func newHostRef() *hostRef {
	if theHostRef != nil {
		return theHostRef
	}
	mem, err := syscall.Mmap(-1, 0, refChaseBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(err)
	}
	chase := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), len(mem)/4)
	// Sattolo's algorithm: a uniformly random single cycle.
	for i := range chase {
		chase[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := len(chase) - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint64(i))
		chase[i], chase[j] = chase[j], chase[i]
	}
	theHostRef = &hostRef{
		m:     make(map[uint64]uint64, refMapKeys),
		keys:  make([]uint64, refSortKeys),
		chase: chase,
	}
	// The first run faults in the map's and the keys' fresh pages and finds
	// the chase array still partly cached from being built: its map kernel
	// read up to twice the steady time, which then scaled the run's first
	// second of ops. Timed runs start from the second.
	theHostRef.run()
	return theHostRef
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// refSink keeps the kernels' results live.
var refSink uint64

// run times the three kernels and returns the geometric mean of their wall
// times in milliseconds.
func (h *hostRef) run() float64 {
	t0 := time.Now()
	clear(h.m)
	x := uint64(1)
	for i := 0; i < refMapKeys; i++ {
		x = xorshift(x)
		h.m[x] = uint64(i)
	}
	for k, v := range h.m {
		refSink += h.m[k^1] + v
	}
	t1 := time.Now()
	for i := range h.keys {
		x = xorshift(x)
		h.keys[i] = x
	}
	sort.Slice(h.keys, func(i, j int) bool { return h.keys[i] < h.keys[j] })
	refSink += h.keys[0]
	t2 := time.Now()
	p := uint32(0)
	for i := 0; i < refChaseSteps; i++ {
		p = h.chase[p]
	}
	refSink += uint64(p)
	t3 := time.Now()
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	return math.Cbrt(ms(t1.Sub(t0)) * ms(t2.Sub(t1)) * ms(t3.Sub(t2)))
}
