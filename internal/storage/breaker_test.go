package storage

import (
	"errors"
	"sync"
	"testing"
	"time"

	"bpwrapper/internal/page"
)

// manualClock is an injectable clock for breaker tests: time moves only
// when the test says so, plus an optional per-call auto-step for
// simulating slow operations.
type manualClock struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration // advance per Now() call
}

func newManualClock() *manualClock {
	return &manualClock{now: time.Unix(1000, 0)}
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(c.step)
	return c.now
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestBreakerTripsOnErrorRate(t *testing.T) {
	fd := NewFaultDevice(NewMemDevice(), FaultConfig{ReadFailProb: 1})
	clk := newManualClock()
	bd := NewBreakerDevice(fd, BreakerConfig{
		Window: 8, MinSamples: 4, ErrorThreshold: 0.5, Now: clk.Now,
	})
	var p page.Page
	sawOpen := false
	for i := 0; i < 20; i++ {
		err := bd.ReadPage(pid(uint64(i+1)), &p)
		if err == nil {
			t.Fatalf("op %d unexpectedly succeeded", i)
		}
		if errors.Is(err, ErrBreakerOpen) {
			sawOpen = true
		}
	}
	if !sawOpen {
		t.Fatal("breaker never opened under 100% error rate")
	}
	if got := bd.State(); got != BreakerOpen {
		t.Fatalf("state = %v, want open", got)
	}
	// Once open, the backing device must see no more traffic.
	before, _, _ := fd.Injected()
	for i := 0; i < 10; i++ {
		if err := bd.ReadPage(pid(100), &p); !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("open breaker returned %v, want ErrBreakerOpen", err)
		}
	}
	after, _, _ := fd.Injected()
	if after != before {
		t.Fatalf("open breaker let %d operations through", after-before)
	}
	st := bd.BreakerStats()
	if st.Trips != 1 || st.Rejections == 0 {
		t.Fatalf("stats = %+v, want 1 trip and >0 rejections", st)
	}
	if got := bd.Stats().BreakerRejections; got != st.Rejections {
		t.Fatalf("DeviceStats.BreakerRejections = %d, want %d", got, st.Rejections)
	}
}

func TestBreakerTripsOnLatencySLO(t *testing.T) {
	clk := newManualClock()
	clk.step = 10 * time.Millisecond // every Now() call moves 10ms: all ops look slow
	bd := NewBreakerDevice(NewMemDevice(), BreakerConfig{
		Window: 8, MinSamples: 4,
		LatencySLO: time.Millisecond, SLOThreshold: 0.5,
		Now: clk.Now,
	})
	var p page.Page
	for i := 0; i < 20 && bd.State() != BreakerOpen; i++ {
		_ = bd.ReadPage(pid(uint64(i+1)), &p)
	}
	if got := bd.State(); got != BreakerOpen {
		t.Fatalf("state = %v, want open after sustained SLO violations", got)
	}
	if st := bd.BreakerStats(); st.Trips != 1 {
		t.Fatalf("trips = %d, want 1", st.Trips)
	}
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	fd := NewFaultDevice(NewMemDevice(), FaultConfig{ReadFailProb: 1})
	clk := newManualClock()
	var transitions []string
	var tmu sync.Mutex
	bd := NewBreakerDevice(fd, BreakerConfig{
		Window: 8, MinSamples: 4, ErrorThreshold: 0.5,
		OpenTimeout: 100 * time.Millisecond, HalfOpenProbes: 3, ProbeProb: 1,
		Now: clk.Now,
		OnStateChange: func(from, to BreakerState) {
			tmu.Lock()
			transitions = append(transitions, from.String()+">"+to.String())
			tmu.Unlock()
		},
	})
	var p page.Page
	for i := 0; i < 10; i++ {
		_ = bd.ReadPage(pid(uint64(i+1)), &p)
	}
	if bd.State() != BreakerOpen {
		t.Fatal("breaker did not open")
	}
	// Device heals, but the breaker stays open until the timeout elapses.
	fd.SetReadFailRate(0)
	if err := bd.ReadPage(pid(1), &p); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("pre-timeout op returned %v, want ErrBreakerOpen", err)
	}
	clk.Advance(150 * time.Millisecond)
	// ProbeProb 1: the next three ops are probes; all succeed → closed.
	for i := 0; i < 3; i++ {
		if err := bd.ReadPage(pid(uint64(i+1)), &p); err != nil {
			t.Fatalf("probe %d failed: %v", i, err)
		}
	}
	if got := bd.State(); got != BreakerClosed {
		t.Fatalf("state = %v, want closed after %d probe successes", got, 3)
	}
	st := bd.BreakerStats()
	if st.Probes != 3 || st.ProbeFails != 0 {
		t.Fatalf("probes = %d fails = %d, want 3/0", st.Probes, st.ProbeFails)
	}
	if st.WindowLen != 0 {
		t.Fatalf("window not reset on close: len %d", st.WindowLen)
	}
	tmu.Lock()
	defer tmu.Unlock()
	want := []string{"closed>open", "open>half-open", "half-open>closed"}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", transitions, want)
		}
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	fd := NewFaultDevice(NewMemDevice(), FaultConfig{ReadFailProb: 1})
	clk := newManualClock()
	bd := NewBreakerDevice(fd, BreakerConfig{
		Window: 8, MinSamples: 4, ErrorThreshold: 0.5,
		OpenTimeout: 100 * time.Millisecond, ProbeProb: 1,
		Now: clk.Now,
	})
	var p page.Page
	for i := 0; i < 10; i++ {
		_ = bd.ReadPage(pid(uint64(i+1)), &p)
	}
	if bd.State() != BreakerOpen {
		t.Fatal("breaker did not open")
	}
	clk.Advance(150 * time.Millisecond)
	// Device still sick: the probe fails and the circuit reopens.
	if err := bd.ReadPage(pid(1), &p); err == nil || errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("probe returned %v, want an injected fault", err)
	}
	if got := bd.State(); got != BreakerOpen {
		t.Fatalf("state = %v, want reopened", got)
	}
	st := bd.BreakerStats()
	if st.Trips != 2 || st.ProbeFails != 1 {
		t.Fatalf("trips = %d probeFails = %d, want 2/1", st.Trips, st.ProbeFails)
	}
}

// TestBreakerProbeSelectionSeeded: with ProbeProb < 1, which half-open
// operations are admitted as probes is drawn from the seeded generator,
// so two breakers with the same seed make identical decisions.
func TestBreakerProbeSelectionSeeded(t *testing.T) {
	run := func() []bool {
		fd := NewFaultDevice(NewMemDevice(), FaultConfig{ReadFailProb: 1})
		clk := newManualClock()
		bd := NewBreakerDevice(fd, BreakerConfig{
			Window: 8, MinSamples: 4, ErrorThreshold: 0.5,
			OpenTimeout: 10 * time.Millisecond, ProbeProb: 0.5, Seed: 42,
			Now: clk.Now,
		})
		var p page.Page
		for i := 0; i < 10; i++ {
			_ = bd.ReadPage(pid(uint64(i+1)), &p)
		}
		var pattern []bool
		for i := 0; i < 40; i++ {
			clk.Advance(20 * time.Millisecond) // re-arm half-open each op
			err := bd.ReadPage(pid(uint64(i+1)), &p)
			pattern = append(pattern, errors.Is(err, ErrBreakerOpen))
		}
		return pattern
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("probe selection diverged at op %d despite identical seeds", i)
		}
	}
}

// TestBreakerIgnoresInvalidPage: caller bugs are not device sickness.
func TestBreakerIgnoresInvalidPage(t *testing.T) {
	bd := NewBreakerDevice(NewMemDevice(), BreakerConfig{Window: 8, MinSamples: 2})
	var p page.Page
	for i := 0; i < 20; i++ {
		if err := bd.ReadPage(page.InvalidPageID, &p); !errors.Is(err, ErrInvalidPage) {
			t.Fatalf("got %v, want ErrInvalidPage", err)
		}
	}
	if got := bd.State(); got != BreakerClosed {
		t.Fatalf("state = %v: invalid-argument errors must not trip the breaker", got)
	}
	if st := bd.BreakerStats(); st.WindowLen != 0 {
		t.Fatalf("window len = %d, want 0", st.WindowLen)
	}
}

func TestBreakerOpenErrorNotRetryable(t *testing.T) {
	if Retryable(ErrBreakerOpen) {
		t.Fatal("ErrBreakerOpen must not be retryable")
	}
	if Retryable(ErrDeadlineExceeded) {
		t.Fatal("ErrDeadlineExceeded must not be retryable")
	}
	if Retryable(ErrCanceled) {
		t.Fatal("ErrCanceled must not be retryable")
	}
}

// TestFindStackWalkers: the Find* helpers locate layers from the
// outermost wrapper of an assembled stack.
func TestFindStackWalkers(t *testing.T) {
	mem := NewMemDevice()
	fd := NewFaultDevice(mem, FaultConfig{})
	cd := NewChecksumDevice(fd)
	rd := NewRetryDevice(cd, RetryConfig{Sleep: func(time.Duration) {}})
	dd := NewDeadlineDevice(rd, DeadlineConfig{})
	bd := NewBreakerDevice(dd, BreakerConfig{})

	if got, ok := FindBreaker(bd); !ok || got != bd {
		t.Fatal("FindBreaker failed on full stack")
	}
	if got, ok := FindDeadline(bd); !ok || got != dd {
		t.Fatal("FindDeadline failed on full stack")
	}
	if _, ok := FindBreaker(mem); ok {
		t.Fatal("FindBreaker found a breaker on a bare MemDevice")
	}
	if _, ok := FindDeadline(rd); ok {
		t.Fatal("FindDeadline found a deadline below the retry layer")
	}
}
