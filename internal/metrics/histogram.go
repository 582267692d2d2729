package metrics

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Histogram is a log-bucketed latency histogram. Buckets grow geometrically
// from Min to Max; values outside the range are clamped into the first or
// last bucket. It is safe for concurrent use by multiple recorders.
//
// Response-time reporting in the paper (Figures 6 and 7) needs only the
// mean, but percentiles are cheap to provide and useful for examples.
type Histogram struct {
	mu      sync.Mutex
	min     float64   // lower bound of bucket 0, nanoseconds
	growth  float64   // geometric growth factor between buckets
	logG    float64   // math.Log(growth)
	bounds  []float64 // bounds[i] = min·growth^i: bucket i is (bounds[i], bounds[i+1]]
	buckets []int64
	count   int64
	sum     float64 // nanoseconds
	maxSeen float64
	minSeen float64

	// exemplars holds at most one traced observation per bucket (newest
	// wins), following the OpenMetrics exemplar model: a scrape can point
	// from a latency bucket straight to a request trace. Allocated lazily
	// by the first RecordTraced, so untraced histograms pay nothing.
	exemplars map[int]Exemplar
}

// Exemplar pairs one observation with the request trace that produced it.
type Exemplar struct {
	Value   time.Duration
	TraceID uint64
	At      time.Time
}

// NewHistogram creates a histogram covering [min, max] with the given number
// of geometric buckets. It panics on nonsensical arguments so that
// misconfiguration fails fast in tests rather than silently mis-binning.
func NewHistogram(min, max time.Duration, buckets int) *Histogram {
	if min <= 0 || max <= min || buckets < 2 {
		panic(fmt.Sprintf("metrics: invalid histogram bounds [%v, %v] x %d", min, max, buckets))
	}
	lo, hi := float64(min.Nanoseconds()), float64(max.Nanoseconds())
	h := &Histogram{
		min:     lo,
		growth:  math.Pow(hi/lo, 1/float64(buckets)),
		bounds:  make([]float64, buckets+1),
		buckets: make([]int64, buckets),
		minSeen: math.Inf(1),
	}
	// Computed once, with the expressions binning always used, so that
	// Record compares against a table instead of calling math.Pow.
	h.logG = math.Log(h.growth)
	for i := range h.bounds {
		h.bounds[i] = h.min * math.Pow(h.growth, float64(i))
	}
	return h
}

// NewLatencyHistogram returns a histogram with bounds suitable for
// transaction response times in the simulator: 100 ns to 100 s.
func NewLatencyHistogram() *Histogram {
	return NewHistogram(100*time.Nanosecond, 100*time.Second, 120)
}

// bucketIndex bins one observation (in nanoseconds) into its bucket.
func (h *Histogram) bucketIndex(ns float64) int {
	idx := 0
	if ns > h.min {
		idx = int(math.Log(ns/h.min) / h.logG)
		if idx >= len(h.buckets) {
			return len(h.buckets) - 1
		}
		// Floating-point log can land an exact bucket boundary on either
		// side of the integer; re-check against the computed bucket's
		// bounds and shift by one if needed so binning is exact.
		if idx < len(h.buckets)-1 && ns > h.bounds[idx+1] {
			idx++
		}
		if idx > 0 && ns <= h.bounds[idx] {
			idx--
		}
	}
	return idx
}

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	h.RecordTraced(d, 0)
}

// RecordBatch adds every observation in ds under one acquisition of the
// histogram's lock: what a recorder that staged a burst's timings privately
// calls once per burst. The result is that of len(ds) Records in order.
func (h *Histogram) RecordBatch(ds []time.Duration) {
	if len(ds) == 0 {
		return
	}
	h.mu.Lock()
	for _, d := range ds {
		ns := float64(d.Nanoseconds())
		h.observe(h.bucketIndex(ns), ns)
	}
	h.mu.Unlock()
}

// RecordTraced adds one observation and, when traceID is non-zero, stores
// it as the exemplar of its bucket — so a scrape of the histogram can link
// the bucket to a concrete request trace. A zero traceID is a plain Record.
func (h *Histogram) RecordTraced(d time.Duration, traceID uint64) {
	ns := float64(d.Nanoseconds())
	idx := h.bucketIndex(ns)
	h.mu.Lock()
	h.observe(idx, ns)
	if traceID != 0 {
		if h.exemplars == nil {
			h.exemplars = make(map[int]Exemplar)
		}
		h.exemplars[idx] = Exemplar{Value: d, TraceID: traceID, At: time.Now()}
	}
	h.mu.Unlock()
}

// observe counts one binned observation; the caller holds h.mu.
func (h *Histogram) observe(idx int, ns float64) {
	h.buckets[idx]++
	h.count++
	h.sum += ns
	if ns > h.maxSeen {
		h.maxSeen = ns
	}
	if ns < h.minSeen {
		h.minSeen = ns
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the mean of the recorded observations, or 0 if none.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum / float64(h.count))
}

// Max returns the largest recorded observation, or 0 if none.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.maxSeen)
}

// Min returns the smallest recorded observation, or 0 if none.
func (h *Histogram) Min() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.minSeen)
}

// Quantile returns an approximation of the q-quantile (0 ≤ q ≤ 1) using the
// geometric upper bound of the bucket containing the quantile rank. The
// extremes are exact: Quantile(0) is the smallest observation and
// Quantile(1) the largest, so single-bucket histograms report their true
// range instead of a bucket bound. An empty histogram returns 0 for any q.
func (h *Histogram) Quantile(q float64) time.Duration {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("metrics: quantile %v out of [0,1]", q))
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	if q == 0 {
		return time.Duration(h.minSeen)
	}
	if q == 1 {
		return time.Duration(h.maxSeen)
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.buckets {
		cum += c
		if cum >= rank {
			upper := h.bounds[i+1]
			// Clamp the bucket bound into the observed range: values are
			// clamped into the edge buckets at Record time, so the
			// geometric bound can overshoot maxSeen or (for observations
			// below the histogram floor) undershoot minSeen.
			if upper > h.maxSeen {
				upper = h.maxSeen
			}
			if upper < h.minSeen {
				upper = h.minSeen
			}
			return time.Duration(upper)
		}
	}
	return time.Duration(h.maxSeen)
}

// Merge adds other's observations into h. Both histograms must have been
// created with identical bounds and bucket counts; Merge panics otherwise.
// It is the cheap way to combine per-worker histograms after a run without
// sharing one lock during it.
func (h *Histogram) Merge(other *Histogram) {
	other.mu.Lock()
	defer other.mu.Unlock()
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.min != other.min || h.growth != other.growth || len(h.buckets) != len(other.buckets) {
		panic("metrics: Merge of histograms with different geometry")
	}
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	h.count += other.count
	h.sum += other.sum
	if other.count > 0 {
		if other.maxSeen > h.maxSeen {
			h.maxSeen = other.maxSeen
		}
		if other.minSeen < h.minSeen {
			h.minSeen = other.minSeen
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram's buckets,
// shaped for exposition: Bounds[i] is the inclusive upper bound of
// Counts[i], and Sum is the total of all observations.
type HistogramSnapshot struct {
	Bounds []time.Duration
	Counts []int64
	Count  int64
	Sum    time.Duration

	// Exemplars maps bucket index → the newest traced observation that
	// landed there; nil when the histogram never saw a traced record.
	Exemplars map[int]Exemplar
}

// Quantile approximates the q-quantile (0 ≤ q ≤ 1) from the snapshot's
// buckets, returning the upper bound of the bucket containing the
// quantile rank. Unlike Histogram.Quantile it has no min/max refinement —
// snapshots carry buckets only — so it is an exposition-grade figure: the
// same number a Prometheus histogram_quantile would derive from the
// bucket series. An empty snapshot returns 0.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("metrics: quantile %v out of [0,1]", q))
	}
	if s.Count == 0 || len(s.Counts) == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			return s.Bounds[i]
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Snapshot copies the histogram's current contents for exposition (e.g.
// Prometheus bucket output). Trailing empty buckets are trimmed to keep
// scrape payloads small; the full geometry is recoverable from the bounds.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	last := -1
	for i, c := range h.buckets {
		if c != 0 {
			last = i
		}
	}
	s := HistogramSnapshot{
		Bounds: make([]time.Duration, last+1),
		Counts: make([]int64, last+1),
		Count:  h.count,
		Sum:    time.Duration(h.sum),
	}
	for i := 0; i <= last; i++ {
		s.Bounds[i] = time.Duration(h.bounds[i+1])
		s.Counts[i] = h.buckets[i]
	}
	if len(h.exemplars) > 0 {
		s.Exemplars = make(map[int]Exemplar, len(h.exemplars))
		for i, e := range h.exemplars {
			if i <= last {
				s.Exemplars[i] = e
			}
		}
	}
	return s
}
