package psm

import "math/bits"

// rowBuffer is the per-chip-enable-pair write buffer (Section V-A,
// implemented as BRAM on the prototype). It tracks one open window — the
// page the processor most recently wrote through this pair — and absorbs
// further writes to that window without touching the PRAM core, which is
// how overwrite conflicts with the cooling window are removed. When the
// window moves (or the flush port fires), every dirty line is programmed to
// the media as an early-return write.
type rowBuffer struct {
	open   bool
	window uint64 // window index (line / WindowLines)
	dirty  uint64 // bitmap over up to 64 lines inside the window
}

// hit reports whether window w is the open one.
//
//lightpc:zeroalloc
func (rb *rowBuffer) hit(w uint64) bool {
	return rb.open && rb.window == w
}

// markDirty records a buffered write to line off of the open window.
//
//lightpc:zeroalloc
func (rb *rowBuffer) markDirty(off uint64) {
	rb.dirty |= 1 << off
}

// isDirty reports whether line off of window w has buffered (not yet
// programmed) data.
//
//lightpc:zeroalloc
func (rb *rowBuffer) isDirty(w, off uint64) bool {
	return rb.hit(w) && rb.dirty&(1<<off) != 0
}

// drainInto appends the dirty lines to buf in ascending order and empties
// the buffer. Every window close and flush drains; callers pass a reused
// scratch slice so the hot path allocates nothing.
//
//lightpc:zeroalloc
func (rb *rowBuffer) drainInto(windowLines uint64, buf []uint64) []uint64 {
	if rb.open {
		base := rb.window * windowLines
		for m := rb.dirty; m != 0; m &= m - 1 {
			//lint:allow zeroalloc callers pass a reused scratch slice; growth is amortized
			buf = append(buf, base+uint64(bits.TrailingZeros64(m)))
		}
	}
	rb.open = false
	rb.dirty = 0
	return buf
}

// openWindow switches the buffer to window w (caller drains first).
//
//lightpc:zeroalloc
func (rb *rowBuffer) openWindow(w uint64) {
	rb.open = true
	rb.window = w
	rb.dirty = 0
}
