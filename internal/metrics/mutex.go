// Package metrics provides the measurement machinery used throughout the
// BP-Wrapper reproduction: a contention-instrumented mutex matching the
// paper's lock-contention definition, cheap atomic counters, and latency
// histograms for response-time reporting.
package metrics

import (
	"sync"
	"sync/atomic"
	"time"

	"bpwrapper/internal/sched"
)

// holdSampleEvery is the hold-time sampling period: the nanosecond clock
// is read on roughly 1 in 64 acquisitions, so the uncontended fast path
// stays two atomic operations.
const holdSampleEvery = 64

// samplerSeed seeds the xorshift sampler, so which holds are clocked is
// the same on every run. Any non-zero constant works; xorshift64 has a
// single absorbing state at zero.
const samplerSeed = 0x9e3779b97f4a7c15

// ContentionMutex is a mutual-exclusion lock that counts how often a lock
// request could not be satisfied immediately, which is exactly the paper's
// definition of a lock contention ("a lock request cannot be immediately
// satisfied and a process context switch occurs", Section IV-D).
//
// Lock first attempts a non-blocking acquisition; if that fails it records
// one contention event, blocks, and accumulates the time spent waiting,
// which it also records into its wait histogram. Hold time is sampled: the
// nanosecond clock is read on a seeded 1-in-holdSampleEvery subset of
// acquisitions and each measured hold goes to the hold histogram, so the
// uncontended fast path performs no clock reads — just the acquisition
// counter and two plain stores (the sampler and the hold's start) under
// the lock.
//
// The zero value is an unlocked mutex ready for use; its histograms are
// allocated by their first record or read.
type ContentionMutex struct {
	mu sync.Mutex

	acquisitions atomic.Int64 // successful Lock/TryLock acquisitions
	contentions  atomic.Int64 // Lock calls that had to block
	tryFailures  atomic.Int64 // TryLock calls that returned false
	waitNanos    atomic.Int64 // total time blocked in Lock (exact)

	// lockedAt and sampler are read and written only while the mutex is
	// held, so the lock's own happens-before edge orders successive holders
	// and plain fields are race-free. lockedAt is when the current hold
	// began, or zero if it is not being clocked; sampler is the xorshift64
	// state deciding which acquisitions get a hold-time clock read (zero
	// means samplerSeed).
	lockedAt int64
	sampler  uint64

	// clockEveryHold makes every acquisition a sample. Tests that need an
	// exact hold set it before the mutex is shared.
	clockEveryHold bool

	histOnce   sync.Once
	wait, hold *Histogram
}

// histograms returns the wait and hold histograms, allocating them on
// first use. Only contended waits, sampled holds and scrapes call it.
func (m *ContentionMutex) histograms() (wait, hold *Histogram) {
	m.histOnce.Do(func() {
		m.wait = NewHistogram(100*time.Nanosecond, 10*time.Second, 60)
		m.hold = NewHistogram(100*time.Nanosecond, 10*time.Second, 60)
	})
	return m.wait, m.hold
}

// Histograms snapshots the contended-wait and sampled-hold distributions
// for exposition.
func (m *ContentionMutex) Histograms() (wait, hold HistogramSnapshot) {
	w, h := m.histograms()
	return w.Snapshot(), h.Snapshot()
}

// sampleNext advances the sampler and reports whether this acquisition's
// hold should be clocked. Called with the mutex held.
func (m *ContentionMutex) sampleNext() bool {
	x := m.sampler
	if x == 0 {
		x = samplerSeed
	}
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	m.sampler = x
	return x%holdSampleEvery == 0 || m.clockEveryHold
}

// beginHold starts hold-time tracking for an acquisition. now is a clock
// reading already in hand (the contended path has one from measuring the
// wait) or zero; the clock is read only if this acquisition is sampled.
// Called with the mutex held.
func (m *ContentionMutex) beginHold(now int64) {
	if !m.sampleNext() {
		m.lockedAt = 0
		return
	}
	if now == 0 {
		now = time.Now().UnixNano()
	}
	m.lockedAt = now
}

// Lock acquires the mutex, recording a contention event if the lock was not
// immediately available.
func (m *ContentionMutex) Lock() {
	if m.mu.TryLock() {
		m.acquisitions.Add(1)
		m.beginHold(0)
		return
	}
	m.contentions.Add(1)
	start := time.Now()
	// On sched's executor a would-block acquire parks the logical thread
	// and retries when the thread is scheduled again.
	for retry := false; ; retry = true {
		if !sched.WouldBlock(m, retry) {
			m.mu.Lock()
			break
		}
		if m.mu.TryLock() {
			break
		}
	}
	now := time.Now()
	wait := now.Sub(start)
	m.waitNanos.Add(wait.Nanoseconds())
	w, _ := m.histograms()
	w.Record(wait)
	m.acquisitions.Add(1)
	m.beginHold(now.UnixNano())
}

// TryLock attempts to acquire the mutex without blocking and reports whether
// it succeeded. Failed attempts are counted separately from contentions:
// in the BP-Wrapper protocol a failed TryLock is an expected, cheap outcome
// (the access stays queued), not a blocking event.
func (m *ContentionMutex) TryLock() bool {
	if m.mu.TryLock() {
		m.acquisitions.Add(1)
		m.beginHold(0)
		return true
	}
	m.tryFailures.Add(1)
	return false
}

// Unlock releases the mutex. If this hold was sampled, the measured hold
// time is recorded into the hold histogram.
func (m *ContentionMutex) Unlock() {
	if at := m.lockedAt; at != 0 {
		_, h := m.histograms()
		h.Record(time.Duration(max(time.Now().UnixNano()-at, 0)))
	}
	m.mu.Unlock()
}

// LockStats is a snapshot of a ContentionMutex's counters.
type LockStats struct {
	Acquisitions int64         // successful acquisitions (Lock + TryLock)
	Contentions  int64         // Lock calls that blocked
	TryFailures  int64         // TryLock calls that failed
	WaitTime     time.Duration // total time blocked in Lock (exact)
}

// Stats returns a snapshot of the mutex's counters. It may be called
// concurrently with lock operations; the fields are individually consistent.
func (m *ContentionMutex) Stats() LockStats {
	return LockStats{
		Acquisitions: m.acquisitions.Load(),
		Contentions:  m.contentions.Load(),
		TryFailures:  m.tryFailures.Load(),
		WaitTime:     time.Duration(m.waitNanos.Load()),
	}
}

// Waited returns how many lock requests so far found the mutex held:
// Contentions + TryFailures. It only grows, so a caller that
// remembers the last value it saw learns from one comparison whether anyone
// has had to wait, or declined to, since it last looked.
func (m *ContentionMutex) Waited() int64 {
	return m.contentions.Load() + m.tryFailures.Load()
}
