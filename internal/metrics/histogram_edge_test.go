package metrics

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestHistogramQuantileExtremesEmpty(t *testing.T) {
	h := NewLatencyHistogram()
	if h.Quantile(0) != 0 || h.Quantile(1) != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram quantiles nonzero: q0=%v q1=%v q50=%v",
			h.Quantile(0), h.Quantile(1), h.Quantile(0.5))
	}
}

func TestHistogramQuantileExtremesSingleValue(t *testing.T) {
	h := NewLatencyHistogram()
	v := 137 * time.Microsecond
	h.Record(v)
	if got := h.Quantile(0); got != v {
		t.Fatalf("Quantile(0) = %v, want exact min %v", got, v)
	}
	if got := h.Quantile(1); got != v {
		t.Fatalf("Quantile(1) = %v, want exact max %v", got, v)
	}
	// Interior quantiles of a single observation are clamped into the
	// observed range, so they also equal the value.
	if got := h.Quantile(0.5); got != v {
		t.Fatalf("Quantile(0.5) = %v, want %v", got, v)
	}
}

func TestHistogramQuantileSingleBucket(t *testing.T) {
	// Two observations that land in the same bucket: quantiles must stay
	// within [min, max] rather than report the bucket's geometric bound.
	h := NewHistogram(time.Microsecond, time.Second, 2)
	lo, hi := 2*time.Microsecond, 3*time.Microsecond
	h.Record(lo)
	h.Record(hi)
	if got := h.Quantile(0); got != lo {
		t.Fatalf("Quantile(0) = %v, want %v", got, lo)
	}
	if got := h.Quantile(1); got != hi {
		t.Fatalf("Quantile(1) = %v, want %v", got, hi)
	}
	for _, q := range []float64{0.01, 0.25, 0.5, 0.75, 0.99} {
		got := h.Quantile(q)
		if got < lo || got > hi {
			t.Fatalf("Quantile(%v) = %v outside observed [%v, %v]", q, got, lo, hi)
		}
	}
}

func TestHistogramQuantileBelowRangeObservation(t *testing.T) {
	// An observation below the histogram floor is clamped into bucket 0;
	// quantiles must not report a bound below the actual minimum's bucket
	// yet also never below minSeen's... the clamp keeps results in
	// [minSeen, maxSeen].
	h := NewHistogram(time.Millisecond, time.Second, 8)
	h.Record(time.Microsecond) // far below floor
	for _, q := range []float64{0, 0.5, 1} {
		got := h.Quantile(q)
		if got < time.Microsecond || got > time.Millisecond*2 {
			t.Fatalf("Quantile(%v) = %v for a single clamped-low observation", q, got)
		}
	}
}

func TestHistogramRecordExactBoundaries(t *testing.T) {
	// Exact powers of the growth factor sit on bucket boundaries where
	// floating-point log is allowed to wobble; binning must still place
	// every observation in a bucket whose bounds contain it.
	h := NewHistogram(time.Microsecond, time.Second, 24)
	growth := h.growth
	for i := 0; i <= 24; i++ {
		ns := h.min
		for k := 0; k < i; k++ {
			ns *= growth
		}
		h.Record(time.Duration(ns))
	}
	if h.Count() != 25 {
		t.Fatalf("count = %d", h.Count())
	}
	// Quantiles over boundary values stay monotone and in range.
	prev := time.Duration(0)
	for _, q := range []float64{0, 0.1, 0.3, 0.5, 0.7, 0.9, 1} {
		got := h.Quantile(q)
		if got < prev {
			t.Fatalf("quantiles not monotone at q=%v: %v < %v", q, got, prev)
		}
		if got < h.Min() || got > h.Max() {
			t.Fatalf("Quantile(%v) = %v outside [%v, %v]", q, got, h.Min(), h.Max())
		}
		prev = got
	}
}

// TestHistogramQuantileProperties is a randomized property test: for any
// recorded multiset, quantiles are monotone in q, bounded by [Min, Max],
// exact at the extremes, and Merge behaves like recording the union.
func TestHistogramQuantileProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		a := NewLatencyHistogram()
		b := NewLatencyHistogram()
		union := NewLatencyHistogram()
		n := 1 + rng.Intn(200)
		var min, max time.Duration
		for i := 0; i < n; i++ {
			v := time.Duration(1+rng.Int63n(int64(10*time.Second))) * time.Nanosecond
			dst := a
			if rng.Intn(2) == 0 {
				dst = b
			}
			dst.Record(v)
			union.Record(v)
			if min == 0 || v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		a.Merge(b)
		if a.Count() != union.Count() {
			t.Fatalf("trial %d: merged count %d != union count %d", trial, a.Count(), union.Count())
		}
		if a.Quantile(0) != min || a.Quantile(1) != max {
			t.Fatalf("trial %d: extremes (%v, %v) != observed (%v, %v)",
				trial, a.Quantile(0), a.Quantile(1), min, max)
		}
		prev := time.Duration(0)
		for q := 0.0; q <= 1.0; q += 0.05 {
			got := a.Quantile(q)
			if got < prev {
				t.Fatalf("trial %d: quantiles not monotone at q=%.2f", trial, q)
			}
			if got < min || got > max {
				t.Fatalf("trial %d: Quantile(%.2f) = %v outside [%v, %v]", trial, q, got, min, max)
			}
			if got != union.Quantile(q) {
				t.Fatalf("trial %d: merge-vs-union quantile mismatch at q=%.2f: %v != %v",
					trial, q, got, union.Quantile(q))
			}
			prev = got
		}
	}
}

func TestHistogramSnapshotShape(t *testing.T) {
	h := NewHistogram(time.Microsecond, time.Second, 16)
	if s := h.Snapshot(); len(s.Bounds) != 0 || s.Count != 0 {
		t.Fatalf("empty snapshot not empty: %+v", s)
	}
	h.Record(2 * time.Microsecond)
	h.Record(500 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 2 {
		t.Fatalf("count = %d", s.Count)
	}
	if len(s.Bounds) != len(s.Counts) {
		t.Fatalf("bounds/counts length mismatch: %d/%d", len(s.Bounds), len(s.Counts))
	}
	var total int64
	for i, c := range s.Counts {
		total += c
		if i > 0 && s.Bounds[i] <= s.Bounds[i-1] {
			t.Fatalf("bounds not increasing at %d: %v then %v", i, s.Bounds[i-1], s.Bounds[i])
		}
	}
	if total != 2 {
		t.Fatalf("bucket counts sum to %d", total)
	}
	if s.Sum != 2*time.Microsecond+500*time.Millisecond {
		t.Fatalf("sum = %v", s.Sum)
	}
}

func TestHistogramSnapshotQuantile(t *testing.T) {
	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty snapshot quantile = %v, want 0", got)
	}

	h := NewHistogram(time.Microsecond, time.Second, 32)
	for i := 0; i < 99; i++ {
		h.Record(10 * time.Microsecond)
	}
	h.Record(100 * time.Millisecond)
	s := h.Snapshot()

	// The snapshot quantile is the bucket's upper bound: monotone in q,
	// and never below the live histogram's refined figure.
	prev := time.Duration(-1)
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		got := s.Quantile(q)
		if got < prev {
			t.Fatalf("snapshot quantile not monotone at q=%v: %v < %v", q, got, prev)
		}
		prev = got
	}
	if p50 := s.Quantile(0.5); p50 < 10*time.Microsecond || p50 > time.Millisecond {
		t.Fatalf("p50 = %v, want a bound near the 10µs mass", p50)
	}
	// The single 100ms outlier sits in the last populated bucket, so the
	// extreme tail must reach at least it.
	if p999 := s.Quantile(0.999); p999 < 100*time.Millisecond {
		t.Fatalf("p999 = %v, want >= the 100ms outlier", p999)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range q did not panic")
		}
	}()
	s.Quantile(1.5)
}

// bucketIndexPow is bucketIndex as it was before the bounds table: every
// call re-derives its bucket's bounds with math.Pow. Kept as the
// reference the table-driven version must agree with exactly, since the
// committed results/BENCH_*.json pin bucket-derived quantiles.
func bucketIndexPow(h *Histogram, ns float64) int {
	idx := 0
	if ns > h.min {
		idx = int(math.Log(ns/h.min) / math.Log(h.growth))
		if idx < len(h.buckets)-1 && ns > h.min*math.Pow(h.growth, float64(idx+1)) {
			idx++
		}
		if idx > 0 && ns <= h.min*math.Pow(h.growth, float64(idx)) {
			idx--
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(h.buckets) {
			idx = len(h.buckets) - 1
		}
	}
	return idx
}

// TestBucketIndexMatchesPowReference checks the table-driven binning
// against the math.Pow reference where a difference could hide — every
// bucket boundary and the values one ulp either side of it, the range's
// edges and beyond — and on 10⁵ seeded values spread over and past the
// histogram's range.
func TestBucketIndexMatchesPowReference(t *testing.T) {
	hists := map[string]*Histogram{
		"latency": NewLatencyHistogram(),
		"two":     NewHistogram(time.Microsecond, time.Second, 2),
		"odd":     NewHistogram(3*time.Nanosecond, 7*time.Hour, 977),
	}
	for name, h := range hists {
		check := func(ns float64) {
			t.Helper()
			if got, want := h.bucketIndex(ns), bucketIndexPow(h, ns); got != want {
				t.Fatalf("%s: bucketIndex(%v) = %d, reference %d", name, ns, got, want)
			}
		}
		for i := 0; i <= len(h.buckets)+2; i++ {
			b := h.min * math.Pow(h.growth, float64(i))
			for _, ns := range []float64{b, math.Nextafter(b, 0), math.Nextafter(b, math.Inf(1)), math.Floor(b), math.Ceil(b)} {
				check(ns)
			}
		}
		for _, ns := range []float64{0, 1, h.min / 2, math.MaxInt64, math.MaxFloat64} {
			check(ns)
		}
		rng := rand.New(rand.NewSource(15))
		top := math.Log(h.min*math.Pow(h.growth, float64(len(h.buckets)))) + 2
		for i := 0; i < 100000; i++ {
			// Log-uniform from below the floor to past the ceiling, as
			// whole nanoseconds half the time (what Record passes).
			ns := math.Exp(math.Log(h.min) - 1 + rng.Float64()*(top-math.Log(h.min)+1))
			if i%2 == 0 {
				ns = math.Floor(ns)
			}
			check(ns)
		}
	}
}

// TestHistogramRecordBatch: a batch of N durations, handed over in pieces
// (an empty one among them), leaves the histogram exactly as N single
// Records do — buckets, count, sum, extremes, and so every quantile.
func TestHistogramRecordBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	ds := make([]time.Duration, 5000)
	for i := range ds {
		// Log-uniform over and beyond the histogram's range, so both edge
		// buckets and exact bounds are hit.
		ds[i] = time.Duration(math.Exp(rng.Float64() * math.Log(500e9)))
	}
	single, batch := NewLatencyHistogram(), NewLatencyHistogram()
	for _, d := range ds {
		single.Record(d)
	}
	batch.RecordBatch(nil)
	for lo := 0; lo < len(ds); {
		hi := lo + rng.Intn(40)
		if hi > len(ds) {
			hi = len(ds)
		}
		batch.RecordBatch(ds[lo:hi])
		lo = hi
	}
	s, b := single.Snapshot(), batch.Snapshot()
	if s.Count != b.Count || s.Sum != b.Sum || len(s.Counts) != len(b.Counts) {
		t.Fatalf("count/sum/buckets: single %d/%v/%d, batch %d/%v/%d", s.Count, s.Sum, len(s.Counts), b.Count, b.Sum, len(b.Counts))
	}
	for i := range s.Counts {
		if s.Counts[i] != b.Counts[i] {
			t.Fatalf("bucket %d: single %d, batch %d", i, s.Counts[i], b.Counts[i])
		}
	}
	if single.Min() != batch.Min() || single.Max() != batch.Max() || single.Mean() != batch.Mean() {
		t.Fatalf("min/max/mean: single %v/%v/%v, batch %v/%v/%v",
			single.Min(), single.Max(), single.Mean(), batch.Min(), batch.Max(), batch.Mean())
	}
	for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.99, 0.999, 1} {
		if single.Quantile(q) != batch.Quantile(q) {
			t.Fatalf("Quantile(%v): single %v, batch %v", q, single.Quantile(q), batch.Quantile(q))
		}
	}
}
