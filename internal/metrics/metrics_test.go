package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestContentionMutexUncontended(t *testing.T) {
	var m ContentionMutex
	for i := 0; i < 100; i++ {
		m.Lock()
		m.Unlock()
	}
	s := m.Stats()
	if s.Acquisitions != 100 {
		t.Errorf("acquisitions = %d, want 100", s.Acquisitions)
	}
	if s.Contentions != 0 {
		t.Errorf("contentions = %d on an uncontended lock", s.Contentions)
	}
	if s.WaitTime != 0 {
		t.Errorf("wait time %v on an uncontended lock", s.WaitTime)
	}
}

func TestContentionMutexTryLock(t *testing.T) {
	var m ContentionMutex
	if !m.TryLock() {
		t.Fatal("TryLock failed on free lock")
	}
	if m.TryLock() {
		t.Fatal("TryLock succeeded on held lock")
	}
	m.Unlock()
	s := m.Stats()
	if s.Acquisitions != 1 || s.TryFailures != 1 {
		t.Errorf("acquisitions=%d tryFailures=%d, want 1/1", s.Acquisitions, s.TryFailures)
	}
	if s.Contentions != 0 {
		t.Errorf("TryLock failure counted as contention")
	}
}

func TestContentionMutexBlockingCounts(t *testing.T) {
	var m ContentionMutex
	// Hold times are sampled by default; clock every acquisition so the
	// 20ms hold below is measured rather than (maybe) skipped.
	m.SetProfile(&LockProfile{SampleEvery: 1})
	m.Lock()
	done := make(chan struct{})
	go func() {
		m.Lock() // must block → one contention
		m.Unlock()
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	m.Unlock()
	<-done
	s := m.Stats()
	if s.Contentions != 1 {
		t.Errorf("contentions = %d, want 1", s.Contentions)
	}
	if s.WaitTime < 10*time.Millisecond {
		t.Errorf("wait time %v implausibly small", s.WaitTime)
	}
	if s.HoldTime < 10*time.Millisecond {
		t.Errorf("hold time %v implausibly small", s.HoldTime)
	}
}

func TestContentionMutexMutualExclusion(t *testing.T) {
	var m ContentionMutex
	counter := 0
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				m.Lock()
				counter++
				m.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != 80000 {
		t.Errorf("counter = %d, want 80000 (mutual exclusion broken)", counter)
	}
	if got := m.Stats().Acquisitions; got != 80000 {
		t.Errorf("acquisitions = %d, want 80000", got)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewLatencyHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram not all-zero")
	}
	h.Record(time.Millisecond)
	h.Record(3 * time.Millisecond)
	if h.Count() != 2 {
		t.Errorf("count = %d", h.Count())
	}
	if mean := h.Mean(); mean != 2*time.Millisecond {
		t.Errorf("mean = %v, want 2ms", mean)
	}
	if h.Max() != 3*time.Millisecond || h.Min() != time.Millisecond {
		t.Errorf("min/max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewLatencyHistogram()
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	p50 := h.Quantile(0.5)
	if p50 < 400*time.Microsecond || p50 > 650*time.Microsecond {
		t.Errorf("p50 = %v, want ~500µs", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 900*time.Microsecond || p99 > 1200*time.Microsecond {
		t.Errorf("p99 = %v, want ~990µs", p99)
	}
	if h.Quantile(1) < h.Quantile(0.5) {
		t.Error("quantiles not monotone")
	}
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram(time.Microsecond, time.Millisecond, 10)
	h.Record(time.Nanosecond)  // below range
	h.Record(10 * time.Second) // above range
	if h.Count() != 2 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Max() != 10*time.Second {
		t.Errorf("max = %v", h.Max())
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewLatencyHistogram()
	b := NewLatencyHistogram()
	a.Record(time.Millisecond)
	b.Record(3 * time.Millisecond)
	b.Record(5 * time.Millisecond)
	a.Merge(b)
	if a.Count() != 3 {
		t.Errorf("merged count = %d", a.Count())
	}
	if a.Mean() != 3*time.Millisecond {
		t.Errorf("merged mean = %v", a.Mean())
	}
	if a.Max() != 5*time.Millisecond {
		t.Errorf("merged max = %v", a.Max())
	}
}

func TestHistogramMergeGeometryMismatch(t *testing.T) {
	a := NewHistogram(time.Microsecond, time.Second, 10)
	b := NewHistogram(time.Microsecond, time.Second, 20)
	defer func() {
		if recover() == nil {
			t.Error("geometry mismatch not detected")
		}
	}()
	a.Merge(b)
}

func TestHistogramConcurrentRecord(t *testing.T) {
	h := NewLatencyHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				h.Record(time.Duration(i+1) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 40000 {
		t.Errorf("count = %d, want 40000", h.Count())
	}
}

func TestHistogramValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewHistogram(0, time.Second, 10) },
		func() { NewHistogram(time.Second, time.Second, 10) },
		func() { NewHistogram(time.Microsecond, time.Second, 1) },
		func() { NewLatencyHistogram().Quantile(1.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid input accepted")
				}
			}()
			fn()
		}()
	}
}
