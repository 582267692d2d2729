package metrics

import (
	"sync"
	"testing"
	"time"
)

// expectedSamples advances a fresh sampler identical to the mutex's and
// returns how many of n acquisitions it samples.
func expectedSamples(seed uint64, n int) int {
	x := seed
	hits := 0
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x%holdSampleEvery == 0 {
			hits++
		}
	}
	return hits
}

// holdSamples is how many holds m has clocked.
func holdSamples(m *ContentionMutex) int64 {
	_, hold := m.Histograms()
	return hold.Count
}

func TestLockProfileSamplerDeterminism(t *testing.T) {
	const n = 10000
	run := func(seed uint64) int64 {
		m := &ContentionMutex{sampler: seed}
		for i := 0; i < n; i++ {
			m.Lock()
			m.Unlock()
		}
		return holdSamples(m)
	}
	a, b := run(0), run(0)
	if a != b {
		t.Fatalf("same seed sampled %d then %d holds — sampler not deterministic", a, b)
	}
	if want := int64(expectedSamples(samplerSeed, n)); a != want {
		t.Fatalf("sampled %d holds, reference sampler says %d", a, want)
	}
	// A different seed should pick a different subset (same expected rate).
	if c := run(8); c == 0 || c == int64(n) {
		t.Fatalf("seed 8 sampled %d of %d — sampling degenerate", c, n)
	}
}

func TestLockProfileSampledHoldEstimate(t *testing.T) {
	var m ContentionMutex
	const n = 4000
	for i := 0; i < n; i++ {
		m.Lock()
		m.Unlock()
	}
	s := m.Stats()
	if s.Acquisitions != n {
		t.Fatalf("acquisitions = %d", s.Acquisitions)
	}
	_, hold := m.Histograms()
	if want := int64(expectedSamples(samplerSeed, n)); hold.Count != want {
		t.Fatalf("hold histogram count = %d, want %d", hold.Count, want)
	}
	if hold.Sum < 0 {
		t.Fatalf("negative hold sum %v", hold.Sum)
	}
}

func TestLockProfileWaitHistogramRecordsContentions(t *testing.T) {
	var m ContentionMutex
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
	wait, _ := m.Histograms()
	if wait.Count != 1 {
		t.Fatalf("wait histogram count = %d, want 1", wait.Count)
	}
	if wait.Sum < 5*time.Millisecond {
		t.Fatalf("recorded wait %v implausibly small", wait.Sum)
	}
}

func TestLockProfileConcurrentSampling(t *testing.T) {
	// Exercise the sampled path under the race detector: plain sampler
	// state handed between holders, histograms shared.
	var m ContentionMutex
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
	if n := holdSamples(&m); n == 0 || n >= s.Acquisitions {
		t.Fatalf("%d of %d holds sampled — sampling degenerate", n, s.Acquisitions)
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
	m := ContentionMutex{clockEveryHold: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Lock()
		m.Unlock()
	}
}
