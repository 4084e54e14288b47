// Package outside is not under internal/: front-end code may read the
// host clock (progress meters, CLI timeouts), and a commutative map fold
// is order-independent, so nothing here is flagged.
package outside

import "time"

func Uptime(start time.Time) time.Duration {
	return time.Since(start)
}

func Keys(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}
