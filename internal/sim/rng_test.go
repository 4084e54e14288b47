package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("too many collisions between different seeds: %d", same)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if mean < 0.49 || mean > 0.51 {
		t.Fatalf("mean = %v, want ~0.5", mean)
	}
}

func TestRNGNorm(t *testing.T) {
	r := NewRNG(17)
	var sum, sq float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Norm(10, 2)
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if mean < 9.9 || mean > 10.1 {
		t.Fatalf("Norm mean = %v", mean)
	}
	if variance < 3.6 || variance > 4.4 {
		t.Fatalf("Norm variance = %v", variance)
	}
}

func TestRNGSplitStableUnderOrdering(t *testing.T) {
	// Split must not consume parent output, and its derivation must not
	// depend on how many or which other Splits happened first — that is
	// the property that makes runner cells scheduling-independent.
	p1 := NewRNG(5)
	p2 := NewRNG(5)
	a1 := p1.Split("fig15/AES")
	_ = p2.Split("fig22/64c")
	_ = p2.Split("tableII/Redis")
	a2 := p2.Split("fig15/AES")
	for i := 0; i < 200; i++ {
		if a1.Uint64() != a2.Uint64() {
			t.Fatal("Split stream depends on sibling Split calls")
		}
	}
	// The parent stream is untouched by Split.
	q := NewRNG(5)
	for i := 0; i < 200; i++ {
		if p1.Uint64() != q.Uint64() {
			t.Fatal("Split perturbed the parent stream")
		}
	}
}

func TestRNGSplitLabelsDecorrelated(t *testing.T) {
	parent := NewRNG(9)
	c1 := parent.Split("cell/a")
	c2 := parent.Split("cell/b")
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams correlated: %d collisions", same)
	}
}

func TestSubSeedPureAndDistinct(t *testing.T) {
	if SubSeed(1, "x") != SubSeed(1, "x") {
		t.Fatal("SubSeed not pure")
	}
	seen := map[uint64]string{}
	labels := []string{"", "a", "b", "ab", "ba", "fig15/AES/LightPC",
		"fig15/AES/LegacyPC", "fig22/8c/0KB", "fig22/8c/2048KB"}
	for _, l := range labels {
		s := SubSeed(42, l)
		if prev, dup := seen[s]; dup {
			t.Fatalf("SubSeed collision: %q and %q", prev, l)
		}
		seen[s] = l
	}
	if SubSeed(1, "x") == SubSeed(2, "x") {
		t.Fatal("SubSeed ignores the parent seed")
	}
}

func TestRNGShuffleIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		r := NewRNG(seed)
		xs := make([]int, n)
		for i := range xs {
			xs[i] = i
		}
		r.Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		seen := make([]bool, n)
		for _, v := range xs {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGBool(t *testing.T) {
	r := NewRNG(23)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if p < 0.29 || p > 0.31 {
		t.Fatalf("Bool(0.3) frequency = %v", p)
	}
}

// TestThresholdMatchesBool checks that Below(Threshold(p)) and Bool(p)
// agree on every draw, at the boundary draws either side of the threshold
// and on random ones, for probabilities at every edge: 0, the smallest
// subnormal, the generators' Table II knobs, one ulp below 1, 1, and the
// out-of-range, infinite and NaN values Bool also accepts.
func TestThresholdMatchesBool(t *testing.T) {
	ps := []float64{0, 5e-324, 0.05, 0.15, 0.25, 0.5, 0.55, 0.7, 0.85,
		1 - 0x1p-53, 1, 1.5, -0.1, math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, p := range ps {
		th := Threshold(p)
		if th > 1<<53 {
			t.Fatalf("Threshold(%v) = %d, beyond 2^53", p, th)
		}
		check := func(x uint64) {
			viaFloat := float64(x>>11)/(1<<53) < p
			if viaInt := x>>11 < th; viaInt != viaFloat {
				t.Fatalf("p=%v draw %#x: threshold %d says %v, Bool says %v", p, x, th, viaInt, viaFloat)
			}
		}
		for _, u := range []uint64{th - 1, th, th + 1, 0, 1<<53 - 1} {
			if u < 1<<53 {
				check(u << 11)
				check(u<<11 | 0x7ff)
			}
		}
		a, b := NewRNG(th), NewRNG(th)
		for i := 0; i < 10000; i++ {
			if got, want := a.Below(th), b.Bool(p); got != want {
				t.Fatalf("p=%v draw %d: Below %v, Bool %v", p, i, got, want)
			}
		}
	}
	if Threshold(0.5) != 1<<52 || Threshold(1) != 1<<53 || Threshold(math.NaN()) != 0 {
		t.Fatalf("Threshold(0.5, 1, NaN) = %d, %d, %d", Threshold(0.5), Threshold(1), Threshold(math.NaN()))
	}
}

// TestUint64MatchesReference checks the inlinable Uint64 against the
// textbook xoshiro256** step over many draws from several seeds.
func TestUint64MatchesReference(t *testing.T) {
	rotl := func(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }
	for seed := uint64(0); seed < 8; seed++ {
		r := NewRNG(seed)
		s := r.s
		for i := 0; i < 10000; i++ {
			want := rotl(s[1]*5, 7) * 9
			tt := s[1] << 17
			s[2] ^= s[0]
			s[3] ^= s[1]
			s[1] ^= s[2]
			s[0] ^= s[3]
			s[2] ^= tt
			s[3] = rotl(s[3], 45)
			if got := r.Uint64(); got != want || r.s != s {
				t.Fatalf("seed %d draw %d: %#x (state %x), want %#x (state %x)", seed, i, got, r.s, want, s)
			}
		}
	}
}
