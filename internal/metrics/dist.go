package metrics

import "sync/atomic"

// CountDist is a lock-free linear histogram of small non-negative integer
// counts — batch sizes, combiner run lengths — cheap enough to record on
// every commit. Values 0..cap-1 land in their own bucket; anything larger
// goes to the shared overflow bucket (tracked exactly by Max).
//
// The zero value is unusable; create with NewCountDist. All methods are
// safe for concurrent use.
type CountDist struct {
	buckets []atomic.Int64 // buckets[cap] is the overflow bucket
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// NewCountDist returns a distribution with dedicated buckets for values
// 0..cap-1 plus an overflow bucket. cap must be positive.
func NewCountDist(cap int) *CountDist {
	if cap <= 0 {
		panic("metrics: CountDist cap must be positive")
	}
	return &CountDist{buckets: make([]atomic.Int64, cap+1)}
}

// Observe records one value. Negative values are clamped to 0.
func (d *CountDist) Observe(v int) {
	if v < 0 {
		v = 0
	}
	idx := v
	if idx >= len(d.buckets)-1 {
		idx = len(d.buckets) - 1
	}
	d.buckets[idx].Add(1)
	d.count.Add(1)
	d.sum.Add(int64(v))
	for {
		cur := d.max.Load()
		if int64(v) <= cur || d.max.CompareAndSwap(cur, int64(v)) {
			return
		}
	}
}

// CountDistSnapshot is a point-in-time copy of a CountDist. Buckets[i]
// counts observations of value i; the final element counts overflow
// (values ≥ len(Buckets)-1).
type CountDistSnapshot struct {
	Buckets []int64
	Count   int64
	Sum     int64
	Max     int64
}

// Snapshot copies the distribution. Buckets are loaded individually, so a
// snapshot under load is approximate in the same one-sided way as the
// other hot-path metrics; at quiescence it is exact.
func (d *CountDist) Snapshot() CountDistSnapshot {
	s := CountDistSnapshot{
		Buckets: make([]int64, len(d.buckets)),
		Count:   d.count.Load(),
		Sum:     d.sum.Load(),
		Max:     d.max.Load(),
	}
	for i := range d.buckets {
		s.Buckets[i] = d.buckets[i].Load()
	}
	return s
}

// Mean returns the average observed value, or 0 with no observations.
func (s CountDistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Plus returns the element-wise sum of two snapshots. Both must come from
// distributions of the same capacity.
func (s CountDistSnapshot) Plus(o CountDistSnapshot) CountDistSnapshot {
	if len(o.Buckets) == 0 {
		return s
	}
	if len(s.Buckets) == 0 {
		return o
	}
	if len(s.Buckets) != len(o.Buckets) {
		panic("metrics: Plus of CountDist snapshots with different capacity")
	}
	out := CountDistSnapshot{
		Buckets: make([]int64, len(s.Buckets)),
		Count:   s.Count + o.Count,
		Sum:     s.Sum + o.Sum,
		Max:     s.Max,
	}
	if o.Max > out.Max {
		out.Max = o.Max
	}
	for i := range s.Buckets {
		out.Buckets[i] = s.Buckets[i] + o.Buckets[i]
	}
	return out
}
