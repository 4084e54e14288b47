package sim

import (
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Mean() != 0 || h.Percentile(50) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for i := 1; i <= 100; i++ {
		h.Add(Duration(i) * Nanosecond)
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
	if got := h.Mean(); got != Duration(50500)*Picosecond {
		t.Fatalf("Mean = %v", got)
	}
	if h.Min() != Nanosecond || h.Max() != 100*Nanosecond {
		t.Fatalf("Min/Max = %v/%v", h.Min(), h.Max())
	}
	p50 := h.Percentile(50)
	if p50 < 49*Nanosecond || p50 > 51*Nanosecond {
		t.Fatalf("p50 = %v", p50)
	}
}

func TestHistogramPercentileMonotonic(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range raw {
			h.Add(Duration(v))
		}
		prev := Duration(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := h.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramStdDevConstant(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 50; i++ {
		h.Add(7 * Nanosecond)
	}
	if h.StdDev() != 0 {
		t.Fatalf("StdDev of constant = %v", h.StdDev())
	}
	if h.CoefficientOfVariation() != 0 {
		t.Fatal("CoV of constant should be 0")
	}
}

func TestHistogramCoV(t *testing.T) {
	// Deterministic distribution should have lower CoV than a wild one.
	det := NewHistogram()
	wild := NewHistogram()
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		det.Add(100*Nanosecond + Duration(r.Intn(3))*Nanosecond)
		wild.Add(Duration(10+r.Intn(500)) * Nanosecond)
	}
	if det.CoefficientOfVariation() >= wild.CoefficientOfVariation() {
		t.Fatalf("CoV ordering wrong: det=%v wild=%v",
			det.CoefficientOfVariation(), wild.CoefficientOfVariation())
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	for i := 0; i < 10; i++ {
		c.Inc()
	}
	if c.Value() != 10 {
		t.Fatalf("Counter = %d", c.Value())
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram()
	h.Add(Nanosecond)
	if h.String() == "" {
		t.Fatal("empty String")
	}
}
