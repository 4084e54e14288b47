// Package zahot exercises the zeroalloc contract against a fact-carrying
// dependency: calls into zadep.Fast are fine because its ZeroAlloc fact
// crossed the package boundary; everything else on an annotated path is
// reported.
package zahot

import (
	"sync/atomic"

	"zadep"
)

var sink []int

// Good only calls fact-carrying functions.
//
//lightpc:zeroalloc
func Good(x int) int {
	return zadep.Fast(x)
}

// Bad allocates directly and calls a fact-less dependency.
//
//lightpc:zeroalloc
func Bad(x int) int {
	buf := make([]int, x)  // want `make allocates`
	sink = zadep.Slow(buf) // want `does not carry the zeroalloc fact`
	return zadep.Fast(x)
}

// Boxes returns a concrete value through an interface.
//
//lightpc:zeroalloc
func Boxes(x int) interface{} {
	return x // want `interface boxing at return`
}

// CallsLocal reaches a same-package helper that never promised anything.
//
//lightpc:zeroalloc
func CallsLocal() int {
	return helper() // want `not annotated //lightpc:zeroalloc`
}

func helper() int { return 1 }

// Allowed shows a sanctioned amortized-growth site.
//
//lightpc:zeroalloc
func Allowed(xs []int) []int {
	//lint:allow zeroalloc fixture: growth is amortized by the caller
	return append(xs, 1)
}

// ColdPanic demonstrates the cold-guard skip: allocation inside an
// if-panic guard is teardown, not steady state.
//
//lightpc:zeroalloc
func ColdPanic(x int) int {
	if x < 0 {
		panic(string(rune(x)) + " negative")
	}
	return x
}

// Counts bumps and reads an atomic counter: sync/atomic never allocates.
//
//lightpc:zeroalloc
func Counts(c *atomic.Uint64) uint64 {
	c.Add(1)
	return c.Load()
}
