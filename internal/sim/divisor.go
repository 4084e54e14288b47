package sim

import "math/bits"

// Divisor divides uint64 values by a divisor fixed at construction without
// a hardware divide: a shift and a mask when the divisor is a power of two,
// otherwise a multiply by a rounded-up reciprocal (libdivide's unsigned
// 64-bit scheme). Div, Mod and DivMod are exact for every uint64 and
// return what / and % return. The address splits on the per-reference
// path (DRAM bank and row, DIMM interleave, PSM window and buffer) divide
// by geometry that never changes after New, where a 64-bit DIV would cost
// tens of cycles per reference.
//
// The zero Divisor is not a divisor; build one with NewDivisor.
type Divisor struct {
	n     uint64 // the divisor
	magic uint64 // low 64 bits of the reciprocal; 0 when n is a power of two
	shift uint8  // floor(log2 n)
	add   bool   // the reciprocal needs a 65th bit, folded in by add-and-halve
}

// NewDivisor precomputes division by n. It panics when n is 0.
func NewDivisor(n uint64) Divisor {
	if n == 0 {
		panic("sim: NewDivisor(0)")
	}
	d := Divisor{n: n, shift: uint8(bits.Len64(n) - 1)}
	if n&(n-1) == 0 {
		return d
	}
	// m = floor(2^(64+shift) / n); 2^shift < n, so the quotient fits.
	m, rem := bits.Div64(1<<d.shift, 0, n)
	if n-rem >= 1<<d.shift {
		// 2^(64+shift) is too small a power for an exact reciprocal: use
		// 2^(65+shift)/n, whose top bit the add-and-halve step supplies.
		m += m
		if twice := rem + rem; twice >= n || twice < rem {
			m++
		}
		d.add = true
	}
	d.magic = m + 1
	return d
}

// N reports the divisor.
//
//lightpc:zeroalloc
func (d Divisor) N() uint64 { return d.n }

// Div returns x / n.
//
//lightpc:zeroalloc
func (d Divisor) Div(x uint64) uint64 {
	if d.magic == 0 {
		return x >> d.shift
	}
	q, _ := bits.Mul64(d.magic, x)
	if d.add {
		q += (x - q) >> 1
	}
	return q >> d.shift
}

// Mod returns x % n.
//
//lightpc:zeroalloc
func (d Divisor) Mod(x uint64) uint64 {
	if d.magic == 0 {
		return x & (d.n - 1)
	}
	return x - d.Div(x)*d.n
}

// DivMod returns x / n and x % n.
//
//lightpc:zeroalloc
func (d Divisor) DivMod(x uint64) (q, r uint64) {
	q = d.Div(x)
	return q, x - q*d.n
}
