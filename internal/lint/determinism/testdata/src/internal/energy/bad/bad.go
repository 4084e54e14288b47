// Package bad exercises the exported-layer triggers in the energy layer:
// a meter that stamps charges from the host clock or exports a ranged
// map corrupts the same byte-stable artifacts as internal/obs, one layer
// earlier.
package bad

import "time"

func ChargeAt() int64 {
	return time.Now().UnixNano() // want `time\.Now in internal/energy`
}

func SnapshotJ(byDevice map[string]float64) float64 {
	var total float64
	for _, j := range byDevice { // want `map iteration in internal/energy`
		total += j
	}
	return total
}
