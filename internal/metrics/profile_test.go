package metrics

import (
	"math"
	"sync"
	"testing"
	"time"
)

// drive advances a fresh sampler identical to the mutex's and returns how
// many of n acquisitions it samples at the given period.
func expectedSamples(seed uint64, every int64, n int) int {
	if seed == 0 {
		seed = defaultSamplerSeed
	}
	x := seed
	hits := 0
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x%uint64(every) == 0 {
			hits++
		}
	}
	return hits
}

func TestLockProfileSamplerDeterminism(t *testing.T) {
	const n = 10000
	const every = 16
	run := func(seed uint64) int64 {
		var m ContentionMutex
		m.SetProfile(&LockProfile{SampleEvery: every, Seed: seed})
		for i := 0; i < n; i++ {
			m.Lock()
			m.Unlock()
		}
		return m.Stats().HoldSamples
	}
	a, b := run(7), run(7)
	if a != b {
		t.Fatalf("same seed sampled %d then %d holds — sampler not deterministic", a, b)
	}
	if want := int64(expectedSamples(7, every, n)); a != want {
		t.Fatalf("sampled %d holds, reference sampler says %d", a, want)
	}
	// A different seed should pick a different subset (same expected rate).
	if c := run(8); c == 0 || c == int64(n) {
		t.Fatalf("seed 8 sampled %d of %d — sampling degenerate", c, n)
	}
}

func TestLockProfileSampledHoldEstimate(t *testing.T) {
	var m ContentionMutex
	hold := NewHistogram(time.Nanosecond, time.Second, 40)
	m.SetProfile(&LockProfile{SampleEvery: 4, Seed: 3, Hold: hold})
	const n = 4000
	for i := 0; i < n; i++ {
		m.Lock()
		m.Unlock()
	}
	s := m.Stats()
	if s.Acquisitions != n {
		t.Fatalf("acquisitions = %d", s.Acquisitions)
	}
	want := int64(expectedSamples(3, 4, n))
	if s.HoldSamples != want {
		t.Fatalf("HoldSamples = %d, want %d", s.HoldSamples, want)
	}
	if hold.Count() != want {
		t.Fatalf("hold histogram count = %d, want %d", hold.Count(), want)
	}
	// The estimate is extrapolated: total ≈ measured × every. With real
	// clocks we can only check structural consistency, not the value.
	if s.HoldTime < 0 {
		t.Fatalf("negative HoldTime estimate %v", s.HoldTime)
	}
	if want > 0 && hold.Count() > 0 && s.HoldTime == 0 && hold.Mean() > 0 {
		t.Fatalf("sampled holds recorded but HoldTime estimate is zero")
	}
}

func TestLockProfileAlwaysSampleIsExact(t *testing.T) {
	var m ContentionMutex
	m.SetProfile(&LockProfile{SampleEvery: 1})
	const n = 100
	for i := 0; i < n; i++ {
		m.Lock()
		m.Unlock()
	}
	if s := m.Stats(); s.HoldSamples != n {
		t.Fatalf("SampleEvery=1 sampled %d of %d", s.HoldSamples, n)
	}
}

func TestLockProfileWaitHistogramRecordsContentions(t *testing.T) {
	var m ContentionMutex
	wait := NewHistogram(time.Nanosecond, time.Second, 40)
	m.SetProfile(&LockProfile{SampleEvery: 1, Wait: wait})
	m.Lock()
	done := make(chan struct{})
	go func() {
		m.Lock()
		m.Unlock()
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	m.Unlock()
	<-done
	if wait.Count() != 1 {
		t.Fatalf("wait histogram count = %d, want 1", wait.Count())
	}
	if wait.Max() < 5*time.Millisecond {
		t.Fatalf("recorded wait %v implausibly small", wait.Max())
	}
}

func TestLockProfileConcurrentSampling(t *testing.T) {
	// Exercise the sampled path under the race detector: plain sampler
	// state handed between holders, profile histograms shared.
	var m ContentionMutex
	m.SetProfile(&LockProfile{
		SampleEvery: 8,
		Seed:        11,
		Wait:        NewHistogram(time.Nanosecond, time.Second, 40),
		Hold:        NewHistogram(time.Nanosecond, time.Second, 40),
	})
	var wg sync.WaitGroup
	counter := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				m.Lock()
				counter++
				m.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != 40000 {
		t.Fatalf("counter = %d (mutual exclusion broken)", counter)
	}
	s := m.Stats()
	if s.Acquisitions != 40000 {
		t.Fatalf("acquisitions = %d", s.Acquisitions)
	}
	if s.HoldSamples == 0 || s.HoldSamples >= s.Acquisitions {
		t.Fatalf("HoldSamples = %d of %d — sampling degenerate", s.HoldSamples, s.Acquisitions)
	}
}

func TestLockStatsPlusAggregation(t *testing.T) {
	a := LockStats{Acquisitions: 1, Contentions: 2, TryFailures: 3, WaitTime: 4, HoldTime: 5, HoldSamples: 6}
	b := LockStats{Acquisitions: 10, Contentions: 20, TryFailures: 30, WaitTime: 40, HoldTime: 50, HoldSamples: 60}
	got := a.Plus(b)
	want := LockStats{Acquisitions: 11, Contentions: 22, TryFailures: 33, WaitTime: 44, HoldTime: 55, HoldSamples: 66}
	if got != want {
		t.Fatalf("Plus = %+v, want %+v", got, want)
	}
	// Plus must not mutate its receiver (value semantics).
	if a.Acquisitions != 1 {
		t.Fatalf("Plus mutated receiver: %+v", a)
	}
}

func TestLockStatsPlusLargeValues(t *testing.T) {
	// A sum of counters that can individually approach years of
	// nanoseconds must survive values far beyond any real run without
	// wrapping where it shouldn't.
	big := int64(math.MaxInt64 / 4)
	a := LockStats{Acquisitions: big, WaitTime: time.Duration(big), HoldTime: time.Duration(big)}
	got := a.Plus(a).Plus(LockStats{})
	if got.Acquisitions != 2*big || got.WaitTime != time.Duration(2*big) {
		t.Fatalf("large-value aggregation wrong: %+v", got)
	}
	if got.Acquisitions < 0 || got.WaitTime < 0 {
		t.Fatalf("aggregation overflowed to negative: %+v", got)
	}
}

func TestAccessSnapshotPlusLargeValues(t *testing.T) {
	big := int64(math.MaxInt64 / 4)
	a := AccessSnapshot{Hits: big, Misses: big}
	got := a.Plus(a)
	if got.Hits != 2*big || got.Misses != 2*big {
		t.Fatalf("Plus = %+v", got)
	}
	if got.Accesses() < 0 {
		// Accesses sums hits+misses: 4×(MaxInt64/4) stays in range; the
		// assertion documents the headroom contract for aggregators.
		t.Fatalf("Accesses overflowed: %d", got.Accesses())
	}
	if r := got.HitRatio(); r < 0.49 || r > 0.51 {
		t.Fatalf("hit ratio of balanced large counts = %v", r)
	}
}

// TestAccessSnapshotHitRatioEmpty: the empty snapshot reads zero, and a
// non-empty one derives both figures from its own pair.
func TestAccessSnapshotHitRatioEmpty(t *testing.T) {
	for _, c := range []struct {
		a        AccessSnapshot
		ratio    float64
		accesses int64
	}{
		{AccessSnapshot{}, 0, 0},
		{AccessSnapshot{Hits: 3, Misses: 1}, 0.75, 4},
	} {
		if c.a.HitRatio() != c.ratio || c.a.Accesses() != c.accesses {
			t.Fatalf("%+v: hit ratio %v, accesses %d; want %v, %d",
				c.a, c.a.HitRatio(), c.a.Accesses(), c.ratio, c.accesses)
		}
	}
}

// BenchmarkContentionMutexUncontended guards the fast path: with default
// sampling the uncontended Lock/Unlock pair must not read the clock on
// most iterations. Compare against BenchmarkContentionMutexAlwaysClocked
// to see the sampling win.
func BenchmarkContentionMutexUncontended(b *testing.B) {
	var m ContentionMutex
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Lock()
		m.Unlock()
	}
}

func BenchmarkContentionMutexAlwaysClocked(b *testing.B) {
	var m ContentionMutex
	m.SetProfile(&LockProfile{SampleEvery: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Lock()
		m.Unlock()
	}
}
