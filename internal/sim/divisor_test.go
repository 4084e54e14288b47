package sim

import (
	"math"
	"testing"
)

func checkDivisor(t *testing.T, n, x uint64) {
	t.Helper()
	d := NewDivisor(n)
	q, r := d.DivMod(x)
	if d.Div(x) != x/n || d.Mod(x) != x%n || q != x/n || r != x%n || d.N() != n {
		t.Fatalf("NewDivisor(%d) on %d: Div %d Mod %d DivMod (%d, %d), want %d, %d",
			n, x, d.Div(x), d.Mod(x), q, r, x/n, x%n)
	}
}

// divisorEdges are the divisors whose reciprocals sit at the edges of the
// scheme: powers of two (shift and mask), their neighbours (the largest
// and smallest reciprocal errors), the 6-DIMM and 48-buffer geometries,
// and the largest uint64.
func divisorEdges() []uint64 {
	ns := []uint64{1, 3, 5, 6, 7, 48, 641, 1000003, math.MaxUint64, math.MaxUint64 - 1}
	for k := 1; k < 64; k++ {
		p := uint64(1) << k
		ns = append(ns, p-1, p, p+1)
	}
	return ns
}

func TestDivisorEdges(t *testing.T) {
	xs := []uint64{0, 1, 2, 5, 63, 64, 1 << 32, math.MaxUint32, math.MaxUint64 - 1, math.MaxUint64}
	r := NewRNG(3)
	for _, n := range divisorEdges() {
		for _, x := range xs {
			checkDivisor(t, n, x)
		}
		for _, x := range []uint64{n - 1, n, n + 1, 2*n - 1, 2 * n, n * (math.MaxUint64 / n), n*(math.MaxUint64/n) - 1} {
			checkDivisor(t, n, x)
		}
		for i := 0; i < 200; i++ {
			checkDivisor(t, n, r.Uint64())
			checkDivisor(t, n, r.Uint64()>>(r.Uint64()%64))
		}
	}
}

func TestDivisorZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDivisor(0) did not panic")
		}
	}()
	NewDivisor(0)
}

// FuzzDivisor checks Div, Mod and DivMod against the hardware / and % for
// any divisor and numerator.
func FuzzDivisor(f *testing.F) {
	for _, n := range divisorEdges() {
		f.Add(n, uint64(math.MaxUint64))
		f.Add(n, n*3+1)
	}
	f.Fuzz(func(t *testing.T, n, x uint64) {
		if n == 0 {
			return
		}
		checkDivisor(t, n, x)
	})
}
