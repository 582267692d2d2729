package storage

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bpwrapper/internal/page"
)

func TestFaultDeviceCountdownExact(t *testing.T) {
	d := NewFaultDevice(NewMemDevice(), FaultConfig{})
	d.FailNextReads(3)
	var p page.Page
	fails := 0
	for i := 0; i < 10; i++ {
		if err := d.ReadPage(pid(uint64(i+1)), &p); err != nil {
			if !errors.Is(err, ErrTransient) {
				t.Fatalf("injected error does not wrap ErrTransient: %v", err)
			}
			fails++
		}
	}
	if fails != 3 {
		t.Fatalf("countdown injected %d failures, want exactly 3", fails)
	}
}

// TestFaultDeviceCountdownConcurrent is the regression test for the racy
// Load-then-Add countdown the old test-local flakyDevice used: N tickets
// must produce exactly N failures no matter how many goroutines race.
func TestFaultDeviceCountdownConcurrent(t *testing.T) {
	d := NewFaultDevice(NewMemDevice(), FaultConfig{})
	const tickets = 100
	d.FailNextReads(tickets)
	var fails atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var p page.Page
			for i := 0; i < 200; i++ {
				if err := d.ReadPage(pid(uint64(g*1000+i+1)), &p); err != nil {
					fails.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := fails.Load(); n != tickets {
		t.Fatalf("%d injected failures, want exactly %d", n, tickets)
	}
}

func TestFaultDeviceFailPage(t *testing.T) {
	d := NewFaultDevice(NewMemDevice(), FaultConfig{})
	d.SetFailPage(pid(7))
	var p page.Page
	if err := d.ReadPage(pid(7), &p); !errors.Is(err, ErrTransient) {
		t.Fatalf("read of failed page: %v", err)
	}
	if err := d.ReadPage(pid(8), &p); err != nil {
		t.Fatalf("unrelated page affected: %v", err)
	}
	d.SetFailPage(page.InvalidPageID)
	if err := d.ReadPage(pid(7), &p); err != nil {
		t.Fatalf("page still failing after clear: %v", err)
	}
}

func TestFaultDevicePermanentTaxonomy(t *testing.T) {
	d := NewFaultDevice(NewMemDevice(), FaultConfig{Permanent: true})
	d.FailNextWrites(1)
	var p page.Page
	p.Stamp(pid(1))
	err := d.WritePage(&p)
	if !errors.Is(err, ErrPermanent) {
		t.Fatalf("permanent fault does not wrap ErrPermanent: %v", err)
	}
	if errors.Is(err, ErrTransient) {
		t.Fatal("permanent fault wraps ErrTransient")
	}
	if Retryable(err) {
		t.Fatal("permanent fault classified retryable")
	}
}

func TestFaultDeviceDeterministicBySeed(t *testing.T) {
	run := func(seed int64) []bool {
		d := NewFaultDevice(NewMemDevice(), FaultConfig{Seed: seed, ReadFailProb: 0.3})
		var outcomes []bool
		var p page.Page
		for i := 0; i < 200; i++ {
			outcomes = append(outcomes, d.ReadPage(pid(uint64(i+1)), &p) != nil)
		}
		return outcomes
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault sequences")
	}
	fails := 0
	for _, f := range a {
		if f {
			fails++
		}
	}
	if fails < 20 || fails > 120 {
		t.Fatalf("%d/200 failures at p=0.3, want roughly 60", fails)
	}
}

func TestFaultDeviceStatsCountInjections(t *testing.T) {
	d := NewFaultDevice(NewMemDevice(), FaultConfig{})
	d.FailNextReads(2)
	d.FailNextWrites(1)
	var p page.Page
	p.Stamp(pid(1))
	d.ReadPage(pid(1), &p)
	d.ReadPage(pid(1), &p)
	d.ReadPage(pid(1), &p) // succeeds
	d.WritePage(&p)        // fails
	d.WritePage(&p)        // succeeds
	s := d.Stats()
	if s.ReadErrors != 2 || s.WriteErrors != 1 {
		t.Fatalf("ReadErrors=%d WriteErrors=%d, want 2/1", s.ReadErrors, s.WriteErrors)
	}
	if s.Reads != 1 || s.Writes != 1 {
		t.Fatalf("backing Reads=%d Writes=%d, want 1/1", s.Reads, s.Writes)
	}
}

func TestRetryDeviceRecoversTransient(t *testing.T) {
	fd := NewFaultDevice(NewMemDevice(), FaultConfig{})
	rd := NewRetryDevice(fd, RetryConfig{MaxAttempts: 4, Sleep: func(time.Duration) {}})
	fd.FailNextReads(3) // exactly exhaust the retries, last attempt succeeds
	var p page.Page
	if err := rd.ReadPage(pid(1), &p); err != nil {
		t.Fatalf("retry did not recover from 3 transient faults: %v", err)
	}
	if !p.VerifyStamp(pid(1)) {
		t.Fatal("recovered read returned wrong bytes")
	}
	if got := rd.Stats().Retries; got != 3 {
		t.Fatalf("Retries=%d, want 3", got)
	}
}

func TestRetryDeviceExhaustsAndSurfaces(t *testing.T) {
	fd := NewFaultDevice(NewMemDevice(), FaultConfig{})
	rd := NewRetryDevice(fd, RetryConfig{MaxAttempts: 3, Sleep: func(time.Duration) {}})
	fd.FailNextReads(10)
	var p page.Page
	err := rd.ReadPage(pid(1), &p)
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("exhausted retry lost the error: %v", err)
	}
	if rd.Exhausted() != 1 {
		t.Fatalf("Exhausted=%d, want 1", rd.Exhausted())
	}
	if got := rd.Stats().Retries; got != 2 {
		t.Fatalf("Retries=%d, want 2 (3 attempts)", got)
	}
}

func TestRetryDeviceDoesNotRetryPermanent(t *testing.T) {
	fd := NewFaultDevice(NewMemDevice(), FaultConfig{Permanent: true})
	attempts := 0
	rd := NewRetryDevice(fd, RetryConfig{MaxAttempts: 5, Sleep: func(time.Duration) { attempts++ }})
	fd.FailNextWrites(5)
	var p page.Page
	p.Stamp(pid(1))
	if err := rd.WritePage(&p); !errors.Is(err, ErrPermanent) {
		t.Fatalf("err=%v, want permanent", err)
	}
	if attempts != 0 {
		t.Fatalf("slept %d times retrying a permanent error", attempts)
	}
	if err := rd.ReadPage(page.InvalidPageID, &p); !errors.Is(err, ErrInvalidPage) {
		t.Fatalf("invalid page err=%v", err)
	}
	if got := rd.Stats().Retries; got != 0 {
		t.Fatalf("Retries=%d, want 0", got)
	}
}

// TestRetryDeviceBackoffGrowsAndCaps pins the fixed ladder: sleeps of 0.5,
// 1, 2, 4 … ms, each jittered within ±20%, the nominal sleep capped at 50ms.
func TestRetryDeviceBackoffGrowsAndCaps(t *testing.T) {
	fd := NewFaultDevice(NewMemDevice(), FaultConfig{})
	var sleeps []time.Duration
	rd := NewRetryDevice(fd, RetryConfig{
		MaxAttempts: 10,
		Sleep:       func(d time.Duration) { sleeps = append(sleeps, d) },
	})
	fd.FailNextReads(10)
	var p page.Page
	rd.ReadPage(pid(1), &p)
	want := []time.Duration{500, 1000, 2000, 4000, 8000, 16000, 32000, 50000, 50000}
	if len(sleeps) != len(want) {
		t.Fatalf("slept %d times, want %d", len(sleeps), len(want))
	}
	for i, w := range want {
		w *= time.Microsecond
		if lo, hi := w*4/5, w*6/5; sleeps[i] < lo || sleeps[i] > hi {
			t.Fatalf("sleep %d = %v, want within [%v, %v] (exponential growth capped at 50ms, ±20%% jitter)", i, sleeps[i], lo, hi)
		}
	}
}

func TestChecksumDeviceDetectsCorruption(t *testing.T) {
	fd := NewFaultDevice(NewMemDevice(), FaultConfig{})
	cd := NewChecksumDevice(fd)
	var w page.Page
	w.Stamp(pid(9))
	if err := cd.WritePage(&w); err != nil {
		t.Fatal(err)
	}
	var r page.Page
	if err := cd.ReadPage(pid(9), &r); err != nil {
		t.Fatalf("clean read flagged: %v", err)
	}
	fd.SetCorruptRate(1)
	err := cd.ReadPage(pid(9), &r)
	if !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("corrupted read err=%v, want ErrCorruptPage", err)
	}
	if !Retryable(err) {
		t.Fatal("ErrCorruptPage must be retryable")
	}
	// Unwritten pages have no recorded checksum and pass through.
	fd.SetCorruptRate(0)
	if err := cd.ReadPage(pid(1000), &r); err != nil {
		t.Fatalf("unstamped page flagged: %v", err)
	}
}

// TestFaultStackEndToEnd composes the full production stack
// Retry(Checksum(Fault(Mem))) and proves a corrupted transfer is detected
// and transparently healed by a retry.
func TestFaultStackEndToEnd(t *testing.T) {
	mem := NewMemDevice()
	fd := NewFaultDevice(mem, FaultConfig{})
	cd := NewChecksumDevice(fd)
	rd := NewRetryDevice(cd, RetryConfig{MaxAttempts: 4, Sleep: func(time.Duration) {}})

	var w page.Page
	w.Stamp(pid(5))
	w.Data[0] = 0x42
	if err := rd.WritePage(&w); err != nil {
		t.Fatal(err)
	}
	fd.SetCorruptRate(1)
	var r page.Page
	errFirst := cd.ReadPage(pid(5), &r)
	if !errors.Is(errFirst, ErrCorruptPage) {
		t.Fatalf("direct corrupted read err=%v", errFirst)
	}
	// Through the retry layer a corruption is retried, and one that
	// persists surfaces as ErrCorruptPage.
	if err := rd.ReadPage(pid(5), &r); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("persistently corrupted read through retries err=%v, want ErrCorruptPage", err)
	}
	if got := rd.Stats().Retries; got != 3 {
		t.Fatalf("%d retries of a persistently corrupted read, want 3 (MaxAttempts 4)", got)
	}
	fd.SetCorruptRate(0.5) // flaky: some reads corrupt, retries heal
	ok := false
	for i := 0; i < 5; i++ {
		if err := rd.ReadPage(pid(5), &r); err == nil {
			ok = true
			break
		}
	}
	if !ok {
		t.Fatal("retry stack never healed a half-corrupt read in 5 tries")
	}
	if r.Data != w.Data {
		t.Fatal("healed read returned wrong bytes")
	}
}
