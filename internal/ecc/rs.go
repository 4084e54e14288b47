package ecc

import (
	"errors"
	"fmt"
)

// ErrUncorrectable is returned when the received word has more symbol
// errors than the code can repair.
var ErrUncorrectable = errors.New("ecc: uncorrectable symbol errors")

// RS is a Reed–Solomon code over GF(2^8) correcting up to T unknown symbol
// errors using 2T parity symbols (systematic encoding: parity is appended
// to the data).
type RS struct {
	t   int
	gen []byte // generator polynomial, degree 2t
}

// NewRS builds a code with the given correction capability t ≥ 1.
func NewRS(t int) *RS {
	if t < 1 || t > 16 {
		panic(fmt.Sprintf("ecc: unsupported correction capability t=%d", t))
	}
	// g(x) = Π_{i=0}^{2t-1} (x - α^i)
	gen := []byte{1}
	for i := 0; i < 2*t; i++ {
		gen = polyMul(gen, []byte{1, gfPow(i)})
	}
	return &RS{t: t, gen: gen}
}

// ParitySymbols reports the redundancy (2t bytes).
func (r *RS) ParitySymbols() int { return 2 * r.t }

// Encode appends 2t parity symbols to data. len(data)+2t must not exceed
// 255 (the GF(2^8) codeword bound).
func (r *RS) Encode(data []byte) []byte {
	n := len(data) + r.ParitySymbols()
	if n > 255 {
		panic(fmt.Sprintf("ecc: codeword length %d exceeds 255", n))
	}
	// Polynomial long division of data·x^{2t} by g(x); remainder = parity.
	out := make([]byte, n)
	copy(out, data)
	for i := 0; i < len(data); i++ {
		coef := out[i]
		if coef == 0 {
			continue
		}
		for j := 1; j < len(r.gen); j++ {
			out[i+j] ^= gfMul(r.gen[j], coef)
		}
	}
	// The division clobbered the data prefix; restore it (systematic).
	copy(out, data)
	return out
}

// syndromes computes the 2t syndromes of the received word; allZero
// reports a clean word.
func (r *RS) syndromes(recv []byte) (synd []byte, allZero bool) {
	synd = make([]byte, 2*r.t)
	allZero = true
	for i := range synd {
		// Evaluate the received polynomial at α^i.
		var s byte
		for _, c := range recv {
			s = gfMul(s, gfPow(i)) ^ c
		}
		synd[i] = s
		if s != 0 {
			allZero = false
		}
	}
	return synd, allZero
}

// Decode repairs up to t symbol errors in place and returns the corrected
// data portion. It returns ErrUncorrectable when the error pattern exceeds
// the code's capability (detection is probabilistic beyond 2t).
func (r *RS) Decode(recv []byte) ([]byte, error) {
	if len(recv) <= r.ParitySymbols() {
		return nil, fmt.Errorf("ecc: codeword too short (%d)", len(recv))
	}
	synd, clean := r.syndromes(recv)
	if clean {
		return recv[:len(recv)-r.ParitySymbols()], nil
	}

	// Berlekamp–Massey: find the error-locator polynomial sigma.
	sigma := []byte{1}
	prev := []byte{1}
	var l, m int = 0, 1
	var b byte = 1
	for n := 0; n < 2*r.t; n++ {
		// Discrepancy.
		var d byte = synd[n]
		for i := 1; i <= l; i++ {
			if i < len(sigma) {
				d ^= gfMul(sigma[i], synd[n-i])
			}
		}
		if d == 0 {
			m++
			continue
		}
		if 2*l <= n {
			tmp := make([]byte, len(sigma))
			copy(tmp, sigma)
			sigma = polyAdd(sigma, scaleShift(prev, gfDiv(d, b), m))
			l = n + 1 - l
			prev = tmp
			b = d
			m = 1
		} else {
			sigma = polyAdd(sigma, scaleShift(prev, gfDiv(d, b), m))
			m++
		}
	}
	if l > r.t {
		return nil, ErrUncorrectable
	}

	// Chien search: roots of sigma give error positions.
	n := len(recv)
	var positions []int
	for pos := 0; pos < n; pos++ {
		// The error locator has roots at α^{-(n-1-pos)}.
		x := gfPow(-(n - 1 - pos))
		var y byte
		for i := len(sigma) - 1; i >= 0; i-- {
			y = gfMul(y, x) ^ sigma[i]
		}
		if y == 0 {
			positions = append(positions, pos)
		}
	}
	if len(positions) != l {
		return nil, ErrUncorrectable
	}

	// Forney: error magnitudes from the evaluator polynomial
	// omega = (synd · sigma) mod x^{2t}.
	omega := make([]byte, 2*r.t)
	for i := 0; i < 2*r.t; i++ {
		var v byte
		for j := 0; j <= i && j < len(sigma); j++ {
			v ^= gfMul(sigma[j], synd[i-j])
		}
		omega[i] = v
	}
	// Formal derivative of sigma: in characteristic 2 only the odd-power
	// terms survive, σ_i·x^i ↦ σ_i·x^{i-1}.
	deriv := make([]byte, len(sigma))
	for i := 1; i < len(sigma); i += 2 {
		deriv[i-1] = sigma[i]
	}
	for _, pos := range positions {
		xj := gfPow(n - 1 - pos) // error location X_j
		xInv := gfInv(xj)
		var num byte
		for i := len(omega) - 1; i >= 0; i-- {
			num = gfMul(num, xInv) ^ omega[i]
		}
		var den byte
		for i := len(deriv) - 1; i >= 0; i-- {
			den = gfMul(den, xInv) ^ deriv[i]
		}
		if den == 0 {
			return nil, ErrUncorrectable
		}
		// Forney with c = 0: e_j = X_j · Ω(X_j⁻¹) / Λ'(X_j⁻¹).
		recv[pos] ^= gfMul(xj, gfDiv(num, den))
	}
	// Verify.
	if _, ok := r.syndromes(recv); !ok {
		return nil, ErrUncorrectable
	}
	return recv[:n-r.ParitySymbols()], nil
}

// polyAdd adds (XORs) two coefficient vectors (lowest-order first).
func polyAdd(a, b []byte) []byte {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make([]byte, n)
	copy(out, a)
	for i, c := range b {
		out[i] ^= c
	}
	return out
}

// scaleShift returns p(x)·k·x^m (lowest-order-first coefficients).
func scaleShift(p []byte, k byte, m int) []byte {
	out := make([]byte, len(p)+m)
	for i, c := range p {
		out[i+m] = gfMul(c, k)
	}
	return out
}
