package metrics

// AccessSnapshot is a point-in-time pair of hit and miss counts, from which
// Accesses and HitRatio derive. The counters it is read from only grow: a
// window is the difference of two snapshots.
type AccessSnapshot struct {
	Hits   int64
	Misses int64
}

// Accesses returns hits + misses of the snapshot.
func (a AccessSnapshot) Accesses() int64 { return a.Hits + a.Misses }

// HitRatio returns hits / (hits + misses), or 0 with no accesses, derived
// from the snapshot's own pair.
func (a AccessSnapshot) HitRatio() float64 {
	if a.Hits+a.Misses == 0 {
		return 0
	}
	return float64(a.Hits) / float64(a.Hits+a.Misses)
}
