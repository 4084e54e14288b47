package ecc

import "fmt"

// HalfSize is the per-device granule XCC protects (32 B, Section V-A).
const HalfSize = 32

// XCCParity computes the XOR parity of a cacheline's two device granules.
// The XOR network is fully combinational — one cycle on the prototype —
// and needs no metadata: the mapping is static.
func XCCParity(lo, hi []byte) []byte {
	mustHalf("XCCParity", lo, hi)
	p := make([]byte, HalfSize)
	for i := range p {
		p[i] = lo[i] ^ hi[i]
	}
	return p
}

// XCCReconstruct regenerates a missing/busy granule from its sibling and
// the parity — the non-blocking read-after-write service and the
// 32 B-per-cacheline large-granularity fault recovery.
func XCCReconstruct(sibling, parity []byte) []byte {
	mustHalf("XCCReconstruct", sibling, parity)
	out := make([]byte, HalfSize)
	for i := range out {
		out[i] = sibling[i] ^ parity[i]
	}
	return out
}

// XCCVerify reports whether a full cacheline is consistent with its parity.
func XCCVerify(lo, hi, parity []byte) bool {
	mustHalf("XCCVerify", lo, hi, parity)
	for i := 0; i < HalfSize; i++ {
		if lo[i]^hi[i] != parity[i] {
			return false
		}
	}
	return true
}

func mustHalf(op string, bufs ...[]byte) {
	for _, b := range bufs {
		if len(b) != HalfSize {
			panic(fmt.Sprintf("ecc: %s: buffer length %d, want %d", op, len(b), HalfSize))
		}
	}
}
