package crashpoint

import (
	"fmt"
	"slices"

	"repro/internal/kernel"
	"repro/internal/pmdk"
	"repro/internal/sim"
)

// poolObjWords is the root object size the pool checker works over.
const poolObjWords = 8

// CheckPool runs a seeded undo-logged transaction workload against a pmdk
// pool, enumerates every word-granular crash state of the recorded write
// stream, reopens the pool at each one (crash recovery rolls back any
// interrupted transaction), and verifies the recovered object is exactly a
// transaction boundary:
//
//   - outside a commit window, the state after the last completed
//     transaction (I1/I2), never the staged values of an open one (I4);
//   - inside TxCommit's own writes, either side of the boundary, but never
//     a mix (I1: the commit must be atomic).
//
// It returns every violation found (nil for a correct pool). The seeded
// torn-commit acceptance test proves this checker catches a persistent
// write hoisted past the undo-log append.
func CheckPool(seed uint64, txs, setsPerTx int) []Violation {
	bank := kernel.NewBank("ocpmem", true)
	pool := pmdk.Open(bank)
	obj := pool.Alloc(poolObjWords)
	pool.SetRoot(obj)
	rng := sim.NewRNG(seed)

	// Baseline committed values, written before recording starts.
	cur := make([]uint64, poolObjWords)
	if err := pool.TxBegin(); err != nil {
		return []Violation{violationf("setup", InvWedged, "TxBegin: %v", err)}
	}
	for i := range cur {
		cur[i] = rng.Uint64()
		pool.Set(obj, i, cur[i])
	}
	if err := pool.TxCommit(); err != nil {
		return []Violation{violationf("setup", InvWedged, "TxCommit: %v", err)}
	}

	// Recorded transactions: snaps[c] is the object after c of them
	// committed; commitBegin/End bracket each TxCommit's own writes.
	snaps := [][]uint64{append([]uint64(nil), cur...)}
	var commitBegin, commitEnd []int
	rec := Record(bank)
	for t := 0; t < txs; t++ {
		if err := pool.TxBegin(); err != nil {
			rec.Stop()
			return []Violation{violationf("setup", InvWedged, "TxBegin: %v", err)}
		}
		for s := 0; s < setsPerTx; s++ {
			idx := rng.Intn(poolObjWords)
			val := rng.Uint64()
			pool.Set(obj, idx, val)
			cur[idx] = val
		}
		commitBegin = append(commitBegin, rec.Writes())
		if err := pool.TxCommit(); err != nil {
			rec.Stop()
			return []Violation{violationf("setup", InvWedged, "TxCommit: %v", err)}
		}
		commitEnd = append(commitEnd, rec.Writes())
		snaps = append(snaps, append([]uint64(nil), cur...))
	}
	rec.Stop()

	var out []Violation
	for k := 0; k <= rec.Writes(); k++ {
		cut := fmt.Sprintf("write %d/%d", k, rec.Writes())
		b := rec.BankAt(k)
		p2 := pmdk.Open(b) // recovery: rolls back an interrupted tx
		if p2.InTx() {
			out = append(out, violationf(cut, InvWedged, "transaction still open after recovery"))
			continue
		}
		root := p2.Root()
		if root == pmdk.NilOID {
			out = append(out, violationf(cut, InvLostCommit, "root object lost"))
			continue
		}
		got := make([]uint64, poolObjWords)
		for i := range got {
			got[i] = p2.Get(root, i)
		}

		// c = transactions whose commit completed at or before k.
		c := 0
		for c < len(commitEnd) && commitEnd[c] <= k {
			c++
		}
		inCommit := c < len(commitBegin) && commitBegin[c] <= k
		switch {
		case slices.Equal(got, snaps[c]):
			// The last durable boundary: always correct.
		case inCommit && slices.Equal(got, snaps[c+1]):
			// Inside TxCommit's own writes the cut may land on either
			// side of the boundary — but only on a boundary.
		case c+1 < len(snaps) && slices.Equal(got, snaps[c+1]):
			out = append(out, violationf(cut, InvResidue,
				"uncommitted transaction %d visible after recovery", c+1))
		default:
			out = append(out, violationf(cut, InvTornCommit,
				"recovered object matches no transaction boundary (want tx %d state)", c))
		}
	}
	return out
}
