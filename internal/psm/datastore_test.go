package psm

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/nvdimm"
	"repro/internal/pram"
	"repro/internal/sim"
	"repro/internal/trace"
)

func hybridConfig() Config {
	cfg := DefaultConfig()
	cfg.SymbolECC = true
	cfg.SymbolDecodeLatency = sim.FromNanoseconds(250)
	return cfg
}

func lineBytes(seed byte) []byte {
	b := make([]byte, trace.CacheLineSize)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

func TestDataStoreRoundTrip(t *testing.T) {
	p := New(DefaultConfig())
	ds := NewDataStore(p)
	want := lineBytes(3)
	now := ds.WriteData(0, 42, want)
	got, done, err := ds.ReadData(now, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("content mangled")
	}
	if !done.After(now) {
		t.Fatal("no time charged")
	}
	if ds.Lines() != 1 {
		t.Fatalf("Lines = %d", ds.Lines())
	}
}

func TestDataStoreUnwrittenReadsZero(t *testing.T) {
	ds := NewDataStore(New(DefaultConfig()))
	got, _, err := ds.ReadData(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("unwritten line not zero")
		}
	}
}

func TestDataStoreXCCRecoversDeadDevice(t *testing.T) {
	p := New(DefaultConfig())
	ds := NewDataStore(p)
	want := lineBytes(9)
	line := uint64(42)
	now := ds.WriteData(0, line, want)

	dimm, dataFirst, _ := ds.Locate(line)
	ds.KillDevice(dimm, dataFirst) // low half gone
	got, _, err := ds.ReadData(now, line)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("XCC reconstruction returned wrong bytes")
	}
	xcc, sym := ds.RecoveryStats()
	if xcc != 1 || sym != 0 {
		t.Fatalf("recovery stats = %d/%d", xcc, sym)
	}

	// The other half alone dead works too.
	ds.ReviveDevice(dimm, dataFirst)
	ds.KillDevice(dimm, dataFirst+1)
	got, _, err = ds.ReadData(now, line)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("high-half recovery failed: %v", err)
	}
}

func TestDataStoreSymbolCodeCoversDoubleFault(t *testing.T) {
	p := New(hybridConfig())
	ds := NewDataStore(p)
	want := lineBytes(17)
	line := uint64(42)
	now := ds.WriteData(0, line, want)

	dimm, dataFirst, _ := ds.Locate(line)
	ds.KillDevice(dimm, dataFirst)
	ds.KillDevice(dimm, dataFirst+1) // both halves dead: beyond XCC
	got, done, err := ds.ReadData(now, line)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("symbol repair returned wrong bytes")
	}
	_, sym := ds.RecoveryStats()
	if sym != 1 {
		t.Fatalf("symbol repairs = %d", sym)
	}
	// The decode latency is visible.
	if done.Sub(now) < p.cfg.SymbolDecodeLatency {
		t.Fatal("symbol decode latency not charged")
	}
}

func TestDataStoreDoubleFaultWithoutSymbolCodeLosesData(t *testing.T) {
	p := New(DefaultConfig()) // XCC only
	ds := NewDataStore(p)
	line := uint64(42)
	now := ds.WriteData(0, line, lineBytes(1))
	dimm, dataFirst, _ := ds.Locate(line)
	ds.KillDevice(dimm, dataFirst)
	ds.KillDevice(dimm, dataFirst+1)
	if _, _, err := ds.ReadData(now, line); err != ErrDataLoss {
		t.Fatalf("err = %v, want ErrDataLoss", err)
	}
}

func TestDataStoreParityDeadTooLosesData(t *testing.T) {
	p := New(DefaultConfig())
	ds := NewDataStore(p)
	line := uint64(42)
	now := ds.WriteData(0, line, lineBytes(5))
	dimm, dataFirst, parityFirst := ds.Locate(line)
	ds.KillDevice(dimm, dataFirst)
	ds.KillDevice(dimm, parityFirst) // sibling AND parity dead
	if _, _, err := ds.ReadData(now, line); err != ErrDataLoss {
		t.Fatalf("err = %v, want ErrDataLoss", err)
	}
}

func TestDataStoreScrubAfterReplacement(t *testing.T) {
	p := New(hybridConfig())
	ds := NewDataStore(p)
	now := sim.Time(0)
	var lines []uint64
	for i := uint64(0); i < 24; i++ {
		line := i * 5
		lines = append(lines, line)
		now = ds.WriteData(now, line, lineBytes(byte(i)))
	}
	// A device dies and is replaced; scrub restores full redundancy.
	ds.KillDevice(2, 0)
	ds.ReviveDevice(2, 0)
	end := ds.Scrub(now)
	if !end.After(now) {
		t.Fatal("scrub took no time")
	}
	for i, line := range lines {
		got, _, err := ds.ReadData(end, line)
		if err != nil || !bytes.Equal(got, lineBytes(byte(i))) {
			t.Fatalf("line %d lost after scrub: %v", line, err)
		}
	}
}

func TestDataStoreContentSurvivesPowerCycle(t *testing.T) {
	// PRAM content is inherently persistent: the store carries across a
	// flush + (simulated) power loss untouched.
	p := New(DefaultConfig())
	ds := NewDataStore(p)
	want := lineBytes(77)
	now := ds.WriteData(0, 9, want)
	end := p.Flush(now)
	p.Reset() // power-cycle the PSM logic; media content stays
	got, _, err := ds.ReadData(end, 9)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatal("content lost across power cycle")
	}
}

func TestDataStoreKillDeviceBounds(t *testing.T) {
	ds := NewDataStore(New(DefaultConfig()))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ds.KillDevice(99, 0)
}

// A zero NVDIMM.DevicesPerDIMM means the default eight devices to the row
// buffers, the DIMMs and the data store alike.
func TestZeroDevicesPerDIMMMeansEight(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DIMMs = 2
	cfg.NVDIMM = nvdimm.Config{Layout: nvdimm.DualChannel, Device: pram.DefaultConfig()}
	p := New(cfg)
	if got := p.Config().Buffers; got != 16 {
		t.Fatalf("Buffers = %d, want 2 DIMMs × 8 devices", got)
	}
	ds := NewDataStore(p)
	want := lineBytes(4)
	line := uint64(5)
	now := ds.WriteData(0, line, want)
	dimm, dataFirst, _ := ds.Locate(line)
	ds.KillDevice(dimm, dataFirst)
	ds.KillDevice(1-dimm, 7)
	got := make([]byte, trace.CacheLineSize)
	if _, err := ds.ReadInto(now, line, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("XCC round trip: err %v, bytes equal %v", err, bytes.Equal(got, want))
	}
}

func TestDataStoreWriteSizeChecked(t *testing.T) {
	ds := NewDataStore(New(DefaultConfig()))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ds.WriteData(0, 0, make([]byte, 32))
}

// Property: for any write set and any single dead device, every line reads
// back byte-exact.
func TestDataStoreSingleFaultProperty(t *testing.T) {
	f := func(seed uint64, linesRaw []uint16, dev uint8) bool {
		p := New(DefaultConfig())
		ds := NewDataStore(p)
		rng := sim.NewRNG(seed)
		content := map[uint64][]byte{}
		now := sim.Time(0)
		for _, lr := range linesRaw {
			line := uint64(lr)
			b := make([]byte, trace.CacheLineSize)
			for i := range b {
				b[i] = byte(rng.Uint64())
			}
			content[line] = b
			now = ds.WriteData(now, line, b)
		}
		ds.KillDevice(int(dev)%6, int(dev/8)%8)
		for line, want := range content {
			got, _, err := ds.ReadData(now, line)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestDataStoreReadIntoAllocFree pins the buffer read: it returns what
// ReadData returns, zeroes for a line never written, and allocates nothing
// on a line no device lost.
func TestDataStoreReadIntoAllocFree(t *testing.T) {
	ds := NewDataStore(New(DefaultConfig()))
	now := ds.WriteData(0, 42, lineBytes(3))
	buf := bytes.Repeat([]byte{0xEE}, trace.CacheLineSize)
	if _, err := ds.ReadInto(now, 7, buf); err != nil || !bytes.Equal(buf, make([]byte, trace.CacheLineSize)) {
		t.Fatalf("unwritten line read %x, %v; want zeroes", buf, err)
	}
	want, wantDone, _ := ds.ReadData(now, 42)
	if done, err := ds.ReadInto(now, 42, buf); err != nil || !bytes.Equal(buf, want) || done != wantDone {
		t.Fatalf("ReadInto = %x at %v, %v; ReadData gave %x at %v", buf, done, err, want, wantDone)
	}
	if n := testing.AllocsPerRun(100, func() {
		now, _ = ds.ReadInto(now, 42, buf)
	}); n != 0 {
		t.Fatalf("ReadInto allocates %.1f times per read", n)
	}
}

// TestDataStoreCloneSharesUntilWrite checks the copy-on-write content: a
// clone reads its source's lines and RS codewords, and a write or a scrub
// on either side afterwards stays on that side.
func TestDataStoreCloneSharesUntilWrite(t *testing.T) {
	p := New(hybridConfig())
	src := NewDataStore(p)
	now := sim.Time(0)
	for i := uint64(0); i < 8; i++ {
		now = src.WriteData(now, i, lineBytes(byte(i)))
	}
	c := src.CloneFor(p.Clone())
	if c.lines != src.lines || c.rsWords != src.rsWords {
		t.Fatal("CloneFor copied the content slabs")
	}
	now = src.WriteData(now, 1, lineBytes(100))
	c.WriteData(now, 2, lineBytes(200))
	c2 := c.CloneFor(p.Clone())
	c2.Scrub(now)
	// With both devices of a line's data pair dead, only its RS codeword
	// brings it back: kill the pair of a line the other side rewrote, on
	// each side, so a codeword write that reached the other side shows.
	for _, kill := range []struct {
		ds   *DataStore
		line uint64
	}{{c, 1}, {src, 2}} {
		dimm, first, _ := kill.ds.Locate(kill.line)
		kill.ds.KillDevice(dimm, first)
		kill.ds.KillDevice(dimm, first+1)
	}
	for _, tc := range []struct {
		name string
		ds   *DataStore
		want [4]byte // content seeds of lines 0..3
	}{
		{"source", src, [4]byte{0, 100, 2, 3}},
		{"clone", c, [4]byte{0, 1, 200, 3}},
		{"clone of clone", c2, [4]byte{0, 1, 200, 3}},
	} {
		for line, seed := range tc.want {
			got, _, err := tc.ds.ReadData(now, uint64(line))
			if err != nil || !bytes.Equal(got, lineBytes(seed)) {
				t.Fatalf("%s line %d = %x, %v; want seed %d", tc.name, line, got, err, seed)
			}
		}
	}
}
