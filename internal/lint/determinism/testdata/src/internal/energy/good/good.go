// Package good must produce no determinism diagnostics: the real
// internal/energy keeps meters in registration order and charges from
// sim time handed in by the instrumented code.
package good

type meter struct {
	name string
	opJ  float64
}

type set struct {
	meters []meter
	byName map[string]int
}

// Lookup-only map access is fine; no range order can leak.
func (s *set) Lookup(name string) (meter, bool) {
	i, ok := s.byName[name]
	if !ok {
		return meter{}, false
	}
	return s.meters[i], true
}

// Registration-order slice iteration is the sanctioned export pattern.
func (s *set) SnapshotJ() []float64 {
	out := make([]float64, len(s.meters))
	for i, m := range s.meters {
		out[i] = m.opJ
	}
	return out
}
