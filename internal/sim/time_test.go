package sim

import (
	"testing"
	"testing/quick"
)

func TestDurationUnits(t *testing.T) {
	if Nanosecond != 1000*Picosecond {
		t.Fatalf("Nanosecond = %d", Nanosecond)
	}
	if Second != 1e12*Picosecond {
		t.Fatalf("Second = %d", Second)
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0)
	t1 := t0.Add(5 * Millisecond)
	if got := t1.Sub(t0); got != 5*Millisecond {
		t.Fatalf("Sub = %v", got)
	}
	if !t0.Before(t1) || !t1.After(t0) {
		t.Fatal("ordering broken")
	}
	if Max(t0, t1) != t1 || Max(t1, t0) != t1 {
		t.Fatal("Max broken")
	}
}

func TestDurationConversions(t *testing.T) {
	d := 2500 * Nanosecond
	if got := d.Microseconds(); got != 2.5 {
		t.Fatalf("Microseconds = %v", got)
	}
	if got := (3 * Millisecond).Milliseconds(); got != 3 {
		t.Fatalf("Milliseconds = %v", got)
	}
	if got := (2 * Second).Seconds(); got != 2 {
		t.Fatalf("Seconds = %v", got)
	}
}

func TestCyclesRoundTrip(t *testing.T) {
	hz := 1.6e9
	d := Cycles(1600, hz) // 1600 cycles at 1.6 GHz = 1 us
	if d != Microsecond {
		t.Fatalf("Cycles = %v", d)
	}
	if got := d.ToCycles(hz); got != 1600 {
		t.Fatalf("ToCycles = %d", got)
	}
}

func TestCyclesRoundTripProperty(t *testing.T) {
	f := func(n uint16) bool {
		hz := 4.0e8 // FPGA frequency
		d := Cycles(int64(n), hz)
		return d.ToCycles(hz) == int64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500 * Picosecond, "500ps"},
		{1500 * Picosecond, "1.50ns"},
		{2 * Microsecond, "2.00us"},
		{12800 * Microsecond, "12.800ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
	if got := (-2 * Microsecond).String(); got != "-2.00us" {
		t.Errorf("negative String = %q", got)
	}
}

func TestFromSeconds(t *testing.T) {
	if FromSeconds(0.001) != Millisecond {
		t.Fatal("FromSeconds broken")
	}
	if FromNanoseconds(1.5) != 1500*Picosecond {
		t.Fatal("FromNanoseconds broken")
	}
}
