package trace

import (
	"testing"
	"testing/quick"
)

func TestOpString(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" {
		t.Fatal("Op names wrong")
	}
	if Op(9).String() != "op(9)" {
		t.Fatal("unknown op name wrong")
	}
}

func TestStatsRatios(t *testing.T) {
	s := Stats{
		Reads: 270, Writes: 10,
		RowBufferHits: 9, RowBufferWrites: 10,
		DReadHits: 99, DReadTotal: 100,
		DWriteHits: 45, DWriteTotal: 50,
	}
	if got := s.ReadWriteRatio(); got != 27 {
		t.Fatalf("ReadWriteRatio = %v", got)
	}
	if got := s.RowBufferHitRate(); got != 0.9 {
		t.Fatalf("RowBufferHitRate = %v", got)
	}
	if got := s.DReadHitRate(); got != 0.99 {
		t.Fatalf("DReadHitRate = %v", got)
	}
	if got := s.DWriteHitRate(); got != 0.9 {
		t.Fatalf("DWriteHitRate = %v", got)
	}
}

func TestStatsZeroDenominators(t *testing.T) {
	var s Stats
	if s.ReadWriteRatio() != 0 || s.DReadHitRate() != 0 ||
		s.DWriteHitRate() != 0 || s.RowBufferHitRate() != 0 {
		t.Fatal("zero-denominator ratios must be 0")
	}
}

func TestStatsMergeCommutes(t *testing.T) {
	f := func(a, b Stats) bool {
		x, y := a, b
		x.Merge(&b)
		y2 := b
		y2.Merge(&a)
		return x == y2 && y == b // merge must not mutate its argument
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Reads: 1, Writes: 1}
	if s.String() == "" {
		t.Fatal("empty String")
	}
}
