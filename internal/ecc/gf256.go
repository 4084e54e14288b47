// Package ecc implements the error-correction codes of Sections V-A and
// VIII as real data transforms, not just timing:
//
//   - XCC: LightPC's XOR-based code — parity is the XOR of the two 32 B
//     device granules of a cacheline, fully combinational, able to
//     regenerate either half while the other is mid-programming, and to
//     recover 32 B per cacheline on large-granularity faults;
//   - a symbol-based Reed–Solomon code over GF(2^8) (the paper's proposed
//     future-work complement, used "only in cases where two or more
//     Bare-NVDIMMs are simultaneously dead"), correcting up to t unknown
//     symbol errors with 2t parity symbols — the 8-bit-per-cacheline
//     correction capability [93] requires t ≥ 8.
package ecc

// GF(2^8) arithmetic with the primitive polynomial x^8+x^4+x^3+x^2+1
// (0x11D), the field used by most storage-class RS codes.

const gfPoly = 0x11D

var (
	gfExp [512]byte // exp table, doubled so mul avoids a mod
	gfLog [256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= gfPoly
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
}

// gfMul multiplies two field elements.
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

// gfDiv divides a by b; division by zero panics (caller bug).
func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("ecc: division by zero in GF(256)")
	}
	if a == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+255-int(gfLog[b])]
}

// gfInv returns the multiplicative inverse.
func gfInv(a byte) byte { return gfDiv(1, a) }

// gfPow raises alpha (the generator) to the given power.
func gfPow(p int) byte {
	p %= 255
	if p < 0 {
		p += 255
	}
	return gfExp[p]
}

// polyMul multiplies two polynomials.
func polyMul(a, b []byte) []byte {
	out := make([]byte, len(a)+len(b)-1)
	for i, ca := range a {
		if ca == 0 {
			continue
		}
		for j, cb := range b {
			out[i+j] ^= gfMul(ca, cb)
		}
	}
	return out
}
