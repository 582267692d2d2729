// Package metrics provides the measurement machinery used throughout the
// BP-Wrapper reproduction: a contention-instrumented mutex matching the
// paper's lock-contention definition, cheap atomic counters, and latency
// histograms for response-time reporting.
package metrics

import (
	"sync"
	"sync/atomic"
	"time"
)

// DefaultSampleEvery is the hold-time sampling period used when no
// LockProfile is installed (or the profile leaves SampleEvery at 0): the
// nanosecond clock is read on roughly 1 in 64 acquisitions and the result
// extrapolated, so the uncontended fast path stays two atomic operations.
const DefaultSampleEvery = 64

// defaultSamplerSeed seeds the xorshift sampler when no profile supplies
// one. Any non-zero constant works; xorshift64 has a single absorbing
// state at zero.
const defaultSamplerSeed = 0x9e3779b97f4a7c15

// LockProfile configures sampled lock profiling on a ContentionMutex.
// Install one with SetProfile to collect wait-time and hold-time
// distributions in addition to the always-on counters.
//
// Hold times are clocked only on a 1-in-SampleEvery pseudo-random sample
// of acquisitions (seeded, so runs are reproducible); wait times are
// recorded on every contention, where the clock has already been read to
// maintain the exact WaitTime counter.
type LockProfile struct {
	// SampleEvery is the hold-time sampling period: the clock is read on
	// roughly 1 in SampleEvery acquisitions. Values ≤ 1 clock every
	// acquisition (exact hold times, at fast-path cost); 0 means
	// DefaultSampleEvery.
	SampleEvery int64

	// Seed seeds the sampling PRNG so torture and benchmark runs are
	// reproducible. Zero selects a fixed default seed.
	Seed uint64

	// Wait, if non-nil, receives every contended wait duration.
	Wait *Histogram

	// Hold, if non-nil, receives every sampled hold duration.
	Hold *Histogram
}

func (p *LockProfile) every() int64 {
	if p == nil || p.SampleEvery == 0 {
		return DefaultSampleEvery
	}
	if p.SampleEvery < 1 {
		return 1
	}
	return p.SampleEvery
}

// ContentionMutex is a mutual-exclusion lock that counts how often a lock
// request could not be satisfied immediately, which is exactly the paper's
// definition of a lock contention ("a lock request cannot be immediately
// satisfied and a process context switch occurs", Section IV-D).
//
// Lock first attempts a non-blocking acquisition; if that fails it records
// one contention event, blocks, and accumulates the time spent waiting.
// Hold time is sampled: the nanosecond clock is read on a seeded
// 1-in-SampleEvery subset of acquisitions and the measured holds are
// extrapolated into HoldTime, so the uncontended fast path performs no
// clock reads — just the acquisition counter and two plain stores (the
// sampler and the hold's start) under the lock.
//
// The zero value is an unlocked mutex ready for use, profiling at
// DefaultSampleEvery with no histograms attached.
type ContentionMutex struct {
	mu sync.Mutex

	acquisitions atomic.Int64 // successful Lock/TryLock acquisitions
	contentions  atomic.Int64 // Lock calls that had to block
	tryFailures  atomic.Int64 // TryLock calls that returned false
	waitNanos    atomic.Int64 // total time blocked in Lock (exact)
	holdNanos    atomic.Int64 // extrapolated total hold time (sampled)
	holdSamples  atomic.Int64 // acquisitions whose hold was clocked

	// lockedAt and sampler are read and written only while the mutex is
	// held, so the lock's own happens-before edge orders successive holders
	// and plain fields are race-free. lockedAt is when the current hold
	// began, or zero if it is not being clocked; sampler is the xorshift64
	// state deciding which acquisitions get a hold-time clock read.
	// SetProfile reseeds the sampler and must only be called at quiescence.
	lockedAt int64
	sampler  uint64

	profile atomic.Pointer[LockProfile]
}

// SetProfile installs (or, with nil, removes) a sampling profile and
// reseeds the sampler from it. It must be called at quiescence — before
// the mutex is shared or while no goroutine is locking it — because the
// sampler state is owned by lock holders.
func (m *ContentionMutex) SetProfile(p *LockProfile) {
	if p != nil && p.Seed != 0 {
		m.sampler = p.Seed
	} else {
		m.sampler = defaultSamplerSeed
	}
	m.profile.Store(p)
}

// Profile returns the currently installed profile, or nil.
func (m *ContentionMutex) Profile() *LockProfile { return m.profile.Load() }

// sampleNext advances the sampler and reports whether this acquisition's
// hold should be clocked. Called with the mutex held.
func (m *ContentionMutex) sampleNext(every int64) bool {
	x := m.sampler
	if x == 0 {
		x = defaultSamplerSeed
	}
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	m.sampler = x
	return x%uint64(every) == 0
}

// beginHold starts hold-time tracking for an acquisition. now is a clock
// reading already in hand (the contended path has one from measuring the
// wait) or zero; the clock is read only if this acquisition is sampled.
// Called with the mutex held.
func (m *ContentionMutex) beginHold(p *LockProfile, now int64) {
	if every := p.every(); every > 1 && !m.sampleNext(every) {
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
		m.beginHold(m.profile.Load(), 0)
		return
	}
	m.contentions.Add(1)
	start := time.Now()
	m.mu.Lock()
	now := time.Now()
	wait := now.Sub(start)
	m.waitNanos.Add(wait.Nanoseconds())
	p := m.profile.Load()
	if p != nil && p.Wait != nil {
		p.Wait.Record(wait)
	}
	m.acquisitions.Add(1)
	m.beginHold(p, now.UnixNano())
}

// TryLock attempts to acquire the mutex without blocking and reports whether
// it succeeded. Failed attempts are counted separately from contentions:
// in the BP-Wrapper protocol a failed TryLock is an expected, cheap outcome
// (the access stays queued), not a blocking event.
func (m *ContentionMutex) TryLock() bool {
	if m.mu.TryLock() {
		m.acquisitions.Add(1)
		m.beginHold(m.profile.Load(), 0)
		return true
	}
	m.tryFailures.Add(1)
	return false
}

// Unlock releases the mutex. If this hold was sampled, the measured hold
// time is recorded and extrapolated into the HoldTime estimate.
func (m *ContentionMutex) Unlock() {
	if at := m.lockedAt; at != 0 {
		hold := time.Now().UnixNano() - at
		if hold < 0 {
			hold = 0
		}
		p := m.profile.Load()
		m.holdNanos.Add(hold * p.every())
		m.holdSamples.Add(1)
		if p != nil && p.Hold != nil {
			p.Hold.Record(time.Duration(hold))
		}
	}
	m.mu.Unlock()
}

// LockStats is a snapshot of a ContentionMutex's counters.
type LockStats struct {
	Acquisitions int64         // successful acquisitions (Lock + TryLock)
	Contentions  int64         // Lock calls that blocked
	TryFailures  int64         // TryLock calls that failed
	WaitTime     time.Duration // total time blocked in Lock (exact)
	HoldTime     time.Duration // estimated total hold time, extrapolated from sampled holds
	HoldSamples  int64         // acquisitions whose hold was actually clocked
}

// Plus returns the field-wise sum of two snapshots.
func (s LockStats) Plus(o LockStats) LockStats {
	s.Acquisitions += o.Acquisitions
	s.Contentions += o.Contentions
	s.TryFailures += o.TryFailures
	s.WaitTime += o.WaitTime
	s.HoldTime += o.HoldTime
	s.HoldSamples += o.HoldSamples
	return s
}

// Stats returns a snapshot of the mutex's counters. It may be called
// concurrently with lock operations; the fields are individually consistent.
func (m *ContentionMutex) Stats() LockStats {
	return LockStats{
		Acquisitions: m.acquisitions.Load(),
		Contentions:  m.contentions.Load(),
		TryFailures:  m.tryFailures.Load(),
		WaitTime:     time.Duration(m.waitNanos.Load()),
		HoldTime:     time.Duration(m.holdNanos.Load()),
		HoldSamples:  m.holdSamples.Load(),
	}
}

// Waited returns how many lock requests so far found the mutex held:
// Contentions + TryFailures. It only grows, so a caller that
// remembers the last value it saw learns from one comparison whether anyone
// has had to wait, or declined to, since it last looked.
func (m *ContentionMutex) Waited() int64 {
	return m.contentions.Load() + m.tryFailures.Load()
}
