package pram

import (
	"testing"

	"repro/internal/sim"
)

// FuzzDieGroup checks a chip-enable group against the same dies modelled
// one by one. A group of n dies and n single-die devices seeded base+i
// receive one stream of Read, Write, Busy, Drain and clone-then-continue
// operations. After every operation the group must report the dies' times
// and conflict flag, the OR of their corruption, the sums of their Stats
// and TouchedRows, and their wear.
//
// Each operation takes three bytes of ops: the kind, the row (one of 8, so
// cooling windows collide often) and the time step before it.
func FuzzDieGroup(f *testing.F) {
	ops := []byte{
		1, 3, 0, 0, 3, 4, 2, 3, 1, 1, 3, 40, 0, 3, 8, 1, 3, 0,
		0, 5, 2, 1, 3, 90, 4, 0, 1, 0, 3, 2, 1, 3, 120, 0, 3, 200,
		3, 0, 9, 1, 6, 0, 0, 6, 1, 1, 3, 255, 0, 3, 255, 4, 0, 0,
		0, 3, 30, 2, 6, 5, 1, 3, 250, 0, 3, 250, 3, 7, 0, 0, 7, 1,
	}
	// dies, base seed, bit-error percent, wear (bit 0 TrackWear, bits 1–4
	// EnduranceCycles), ops.
	f.Add(uint8(1), uint64(7), uint8(50), uint8(0x07), ops) // one die
	f.Add(uint8(2), uint64(7), uint8(50), uint8(0x07), ops) // a dual-channel pair
	f.Add(uint8(8), uint64(7), uint8(50), uint8(0x07), ops) // a DRAM-like rank
	f.Add(uint8(8), uint64(3), uint8(0), uint8(0x05), ops)  // wear-out only
	f.Fuzz(func(t *testing.T, dies uint8, seed uint64, errPct, wear uint8, ops []byte) {
		n := int(dies-1)%8 + 1
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.BitErrorPerRead = float64(errPct%101) / 100
		cfg.TrackWear = wear&1 != 0
		cfg.EnduranceCycles = uint64(wear>>1) & 15
		group := NewGroup(cfg, n)
		singles := make([]*Device, n)
		for i := range singles {
			c := cfg
			c.Seed = seed + uint64(i)
			singles[i] = NewDevice(c)
		}
		now := sim.Time(0)
		for i := 0; i+2 < len(ops); i += 3 {
			op, row := i/3, uint64(ops[i+1]%8)
			now = now.Add(sim.Duration(ops[i+2]) * cfg.ReadLatency / 32)
			switch ops[i] % 5 {
			case 0:
				done, conflicted, corrupted := group.Read(now, row)
				anyCorrupt := false
				for k, d := range singles {
					dd, dc, dcorr := d.Read(now, row)
					if dd != done || dc != conflicted {
						t.Fatalf("op %d: group Read(row %d) = (%v, %v), die %d (%v, %v)",
							op, row, done, conflicted, k, dd, dc)
					}
					anyCorrupt = anyCorrupt || dcorr
				}
				if corrupted != anyCorrupt {
					t.Fatalf("op %d: group corrupted %v, dies %v", op, corrupted, anyCorrupt)
				}
			case 1:
				accept, complete := group.Write(now, row)
				for k, d := range singles {
					if a, c := d.Write(now, row); a != accept || c != complete {
						t.Fatalf("op %d: group Write(row %d) = (%v, %v), die %d (%v, %v)",
							op, row, accept, complete, k, a, c)
					}
				}
			case 2:
				busy := group.Busy(now, row)
				for k, d := range singles {
					if d.Busy(now, row) != busy {
						t.Fatalf("op %d: group Busy(row %d) = %v, die %d disagrees", op, row, busy, k)
					}
				}
			case 3:
				drain := group.Drain(now)
				for k, d := range singles {
					if got := d.Drain(now); got != drain {
						t.Fatalf("op %d: group Drain = %v, die %d %v", op, drain, k, got)
					}
				}
			case 4:
				group, singles = cloneDies(t, group, singles)
			}
			checkDieTotals(t, op, row, group, singles)
		}
	})
}

// cloneDies clones the group and the single dies, the singles through one
// shared RNG slab as nvdimm's Clone does.
func cloneDies(t *testing.T, group *Device, singles []*Device) (*Device, []*Device) {
	g := new(Device)
	if rest := group.CloneInto(g, make([]sim.RNG, len(singles)+1)); len(rest) != 1 {
		t.Fatalf("group clone left %d RNG slots of %d, want 1", len(rest), len(singles)+1)
	}
	devs := make([]Device, len(singles))
	rngs := make([]sim.RNG, len(singles))
	out := make([]*Device, len(singles))
	for i, d := range singles {
		rngs = d.CloneInto(&devs[i], rngs)
		out[i] = &devs[i]
	}
	return g, out
}

// checkDieTotals compares the group's counters and wear with its dies'.
func checkDieTotals(t *testing.T, op int, row uint64, group *Device, singles []*Device) {
	t.Helper()
	var sum [4]uint64
	touched := 0
	maxRow, maxCount := group.MaxWear()
	for k, d := range singles {
		r, w, c, e := d.Stats()
		for j, v := range [4]uint64{r, w, c, e} {
			sum[j] += v
		}
		touched += d.TouchedRows()
		if dr, dc := d.MaxWear(); dr != maxRow || dc != maxCount {
			t.Fatalf("op %d: group MaxWear (%d, %d), die %d (%d, %d)", op, maxRow, maxCount, k, dr, dc)
		}
		if d.WearCount(row) != group.WearCount(row) {
			t.Fatalf("op %d: group WearCount(%d) = %d, die %d %d", op, row, group.WearCount(row), k, d.WearCount(row))
		}
	}
	if r, w, c, e := group.Stats(); [4]uint64{r, w, c, e} != sum {
		t.Fatalf("op %d: group Stats (reads, writes, conflicts, errors) = %v, dies sum to %v",
			op, [4]uint64{r, w, c, e}, sum)
	}
	if got := group.TouchedRows(); got != touched {
		t.Fatalf("op %d: group TouchedRows = %d, dies sum to %d", op, got, touched)
	}
}
