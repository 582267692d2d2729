package storage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bpwrapper/internal/page"
)

// ErrBreakerOpen is returned by a BreakerDevice that is rejecting
// operations because its circuit is open. It is deliberately not
// Retryable: the whole point of the breaker is to fail fast instead of
// feeding more work to a sick device, and a RetryDevice layered above
// must not defeat that by spinning on it.
var ErrBreakerOpen = errors.New("storage: circuit breaker open")

// BreakerState is the classic three-state circuit-breaker automaton.
type BreakerState int32

const (
	// BreakerClosed: operations flow through; outcomes feed the sliding
	// window that decides whether to trip.
	BreakerClosed BreakerState = iota

	// BreakerOpen: operations are rejected immediately with
	// ErrBreakerOpen until OpenTimeout elapses.
	BreakerOpen

	// BreakerHalfOpen: a seeded fraction of operations are admitted as
	// probes; enough consecutive probe successes close the circuit, any
	// probe failure reopens it.
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int32(s))
	}
}

// BreakerConfig tunes a BreakerDevice.
type BreakerConfig struct {
	// Window is the number of recent operation outcomes considered when
	// deciding whether to trip. Zero means 64.
	Window int

	// ErrorThreshold trips the breaker when the fraction of failed
	// operations in the window reaches it (and the window holds at least
	// MinSamples outcomes). Zero means 0.5.
	ErrorThreshold float64

	// LatencySLO, when positive, counts operations slower than it as SLO
	// violations; the breaker trips when the violating fraction reaches
	// SLOThreshold. Zero disables latency tripping.
	LatencySLO time.Duration

	// SLOThreshold is the slow-operation fraction that trips the breaker
	// when LatencySLO is set. Zero means 0.5.
	SLOThreshold float64

	// MinSamples is the minimum number of outcomes in the window before
	// either threshold is evaluated, so a single early failure cannot
	// trip a cold breaker. Zero means 16.
	MinSamples int

	// OpenTimeout is how long the breaker stays open before moving to
	// half-open and admitting probes. Zero means 100ms.
	OpenTimeout time.Duration

	// HalfOpenProbes is the number of consecutive probe successes needed
	// to close the circuit from half-open. Zero means 3.
	HalfOpenProbes int

	// ProbeProb is the probability that an operation arriving in
	// half-open is admitted as a probe (the rest are rejected), drawn
	// from the seeded generator. Zero means 0.25; 1 admits every
	// operation.
	ProbeProb float64

	// Seed feeds the deterministic probe-selection generator.
	Seed int64

	// Now replaces time.Now for the open-timeout clock, letting
	// deterministic benches drive state transitions without wall time.
	// Nil means time.Now.
	Now func() time.Time

	// OnStateChange, when non-nil, is called after every state
	// transition (outside the breaker's lock).
	OnStateChange func(from, to BreakerState)
}

// BreakerStats is a snapshot of a BreakerDevice's own counters,
// complementing the folded DeviceStats.
type BreakerStats struct {
	State       BreakerState
	Trips       int64 // transitions into BreakerOpen
	Rejections  int64 // operations rejected with ErrBreakerOpen
	Probes      int64 // operations admitted as half-open probes
	ProbeFails  int64 // probes that failed and reopened the circuit
	WindowLen   int   // outcomes currently in the sliding window
	WindowErrs  int   // failed outcomes in the window
	WindowSlow  int   // SLO-violating outcomes in the window
	Transitions int64 // total state transitions
}

// BreakerDevice wraps a Device with a per-device circuit breaker. While
// closed it records every operation's outcome (error and latency) in a
// sliding window; when the windowed error rate or latency-SLO violation
// rate crosses its threshold the circuit opens and subsequent operations
// fail immediately with ErrBreakerOpen — protecting callers from waiting
// on a device that is known to be sick, and protecting the device from a
// retry storm while it recovers. After OpenTimeout the breaker admits
// seeded probe operations; enough successes re-close it, a failure
// reopens it.
//
// Invalid-argument errors (ErrInvalidPage) are caller bugs, not device
// health, and do not count against the window.
//
// The outcome window is guarded by a mutex; every operation that reaches
// it is device-priced (microseconds at best), so the breaker's lock is
// never the bottleneck. The state itself is also mirrored in an atomic so
// observers (shard health checks, metrics scrapes) read it without
// touching the lock.
type BreakerDevice struct {
	backing Device
	cfg     BreakerConfig

	state atomic.Int32 // BreakerState mirror for lock-free observers

	mu        sync.Mutex
	outcomes  []outcome // ring buffer, len == cfg.Window
	winIdx    int       // next write position
	winLen    int       // filled entries
	winErrs   int       // failures currently in the window
	winSlow   int       // SLO violations currently in the window
	openUntil time.Time // when half-open probing may begin
	probeOK   int       // consecutive probe successes this half-open episode
	rng       uint64    // seeded probe-selection generator

	trips       atomic.Int64
	rejections  atomic.Int64
	probes      atomic.Int64
	probeFails  atomic.Int64
	transitions atomic.Int64
}

type outcome struct {
	failed bool
	slow   bool
}

// NewBreakerDevice wraps backing with a circuit breaker per cfg.
func NewBreakerDevice(backing Device, cfg BreakerConfig) *BreakerDevice {
	if cfg.Window <= 0 {
		cfg.Window = 64
	}
	if cfg.ErrorThreshold <= 0 {
		cfg.ErrorThreshold = 0.5
	}
	if cfg.SLOThreshold <= 0 {
		cfg.SLOThreshold = 0.5
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = 16
	}
	if cfg.MinSamples > cfg.Window {
		cfg.MinSamples = cfg.Window
	}
	if cfg.OpenTimeout <= 0 {
		cfg.OpenTimeout = 100 * time.Millisecond
	}
	if cfg.HalfOpenProbes <= 0 {
		cfg.HalfOpenProbes = 3
	}
	if cfg.ProbeProb <= 0 {
		cfg.ProbeProb = 0.25
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &BreakerDevice{
		backing:  backing,
		cfg:      cfg,
		outcomes: make([]outcome, cfg.Window),
		rng:      uint64(cfg.Seed)*0x9e3779b97f4a7c15 + 0x3c6ef372fe94f82b,
	}
}

// Backing returns the wrapped device, letting callers walk a wrapper
// stack.
func (d *BreakerDevice) Backing() Device { return d.backing }

// State returns the breaker's current state. Closed and half-open read a
// single atomic. Open additionally checks the timeout clock under the
// lock and reports BreakerHalfOpen once OpenTimeout has elapsed, even
// though the automaton itself only transitions on the next admitted
// operation: observers that gate traffic on State() (the shard health
// machine sheds every miss while a breaker is open) would otherwise
// never send the operation that re-arms the breaker, leaving the circuit
// open forever.
func (d *BreakerDevice) State() BreakerState {
	st := BreakerState(d.state.Load())
	if st != BreakerOpen {
		return st
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if BreakerState(d.state.Load()) == BreakerOpen && !d.cfg.Now().Before(d.openUntil) {
		return BreakerHalfOpen
	}
	return BreakerState(d.state.Load())
}

// BreakerStats returns a snapshot of the breaker's own counters.
func (d *BreakerDevice) BreakerStats() BreakerStats {
	d.mu.Lock()
	winLen, winErrs, winSlow := d.winLen, d.winErrs, d.winSlow
	d.mu.Unlock()
	return BreakerStats{
		State:       d.State(),
		Trips:       d.trips.Load(),
		Rejections:  d.rejections.Load(),
		Probes:      d.probes.Load(),
		ProbeFails:  d.probeFails.Load(),
		WindowLen:   winLen,
		WindowErrs:  winErrs,
		WindowSlow:  winSlow,
		Transitions: d.transitions.Load(),
	}
}

// rand returns the next deterministic uniform variate in [0, 1).
// Callers must hold d.mu.
func (d *BreakerDevice) rand() float64 {
	d.rng += 0x9e3779b97f4a7c15
	z := d.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// transitionLocked moves the automaton to next and returns the callback
// to invoke once the lock is released. Callers must hold d.mu.
func (d *BreakerDevice) transitionLocked(next BreakerState) func() {
	prev := BreakerState(d.state.Load())
	if prev == next {
		return nil
	}
	d.state.Store(int32(next))
	d.transitions.Add(1)
	switch next {
	case BreakerOpen:
		d.trips.Add(1)
		d.openUntil = d.cfg.Now().Add(d.cfg.OpenTimeout)
	case BreakerHalfOpen:
		d.probeOK = 0
	case BreakerClosed:
		// A fresh window: the outcomes that tripped the breaker are
		// history, not evidence against the recovered device.
		d.winIdx, d.winLen, d.winErrs, d.winSlow = 0, 0, 0, 0
	}
	if cb := d.cfg.OnStateChange; cb != nil {
		return func() { cb(prev, next) }
	}
	return nil
}

// admission classifies one arriving operation.
type admission int

const (
	admitNormal admission = iota // closed: record outcome in the window
	admitProbe                   // half-open: outcome decides the circuit
	admitReject                  // open: fail fast
)

// admit decides what to do with an arriving operation and fires any
// state-change callback after releasing the lock.
func (d *BreakerDevice) admit() admission {
	d.mu.Lock()
	var cb func()
	state := BreakerState(d.state.Load())
	if state == BreakerOpen {
		if d.cfg.Now().Before(d.openUntil) {
			d.mu.Unlock()
			d.rejections.Add(1)
			return admitReject
		}
		cb = d.transitionLocked(BreakerHalfOpen)
		state = BreakerHalfOpen
	}
	var a admission
	switch state {
	case BreakerHalfOpen:
		if d.rand() < d.cfg.ProbeProb {
			a = admitProbe
		} else {
			a = admitReject
		}
	default:
		a = admitNormal
	}
	d.mu.Unlock()
	if cb != nil {
		cb()
	}
	if a == admitReject {
		d.rejections.Add(1)
	} else if a == admitProbe {
		d.probes.Add(1)
	}
	return a
}

// record feeds one closed-state outcome into the sliding window and
// trips the breaker if a threshold is crossed.
func (d *BreakerDevice) record(failed, slow bool) {
	d.mu.Lock()
	if BreakerState(d.state.Load()) != BreakerClosed {
		// The breaker tripped while this operation was in flight (a
		// concurrent operation crossed the threshold first). Its outcome
		// belongs to the episode that already tripped; dropping it keeps
		// the window a clean record of the next closed episode.
		d.mu.Unlock()
		return
	}
	if d.winLen == len(d.outcomes) {
		old := d.outcomes[d.winIdx]
		if old.failed {
			d.winErrs--
		}
		if old.slow {
			d.winSlow--
		}
	} else {
		d.winLen++
	}
	d.outcomes[d.winIdx] = outcome{failed: failed, slow: slow}
	d.winIdx = (d.winIdx + 1) % len(d.outcomes)
	if failed {
		d.winErrs++
	}
	if slow {
		d.winSlow++
	}
	var cb func()
	if d.winLen >= d.cfg.MinSamples {
		n := float64(d.winLen)
		if float64(d.winErrs)/n >= d.cfg.ErrorThreshold ||
			(d.cfg.LatencySLO > 0 && float64(d.winSlow)/n >= d.cfg.SLOThreshold) {
			cb = d.transitionLocked(BreakerOpen)
		}
	}
	d.mu.Unlock()
	if cb != nil {
		cb()
	}
}

// probeResult settles one half-open probe: a success counts toward
// closing the circuit, a failure reopens it.
func (d *BreakerDevice) probeResult(ok bool) {
	d.mu.Lock()
	var cb func()
	if !ok {
		d.probeFails.Add(1)
		cb = d.transitionLocked(BreakerOpen)
	} else {
		d.probeOK++
		if d.probeOK >= d.cfg.HalfOpenProbes {
			cb = d.transitionLocked(BreakerClosed)
		}
	}
	d.mu.Unlock()
	if cb != nil {
		cb()
	}
}

// do runs op under the breaker protocol. countable reports whether an
// error is evidence of device sickness (invalid-argument errors are
// not).
func (d *BreakerDevice) do(opName string, id page.PageID, op func() error) error {
	switch d.admit() {
	case admitReject:
		return fmt.Errorf("storage: %s of page %v rejected: %w", opName, id, ErrBreakerOpen)
	case admitProbe:
		start := d.cfg.Now()
		err := op()
		elapsed := d.cfg.Now().Sub(start)
		if errors.Is(err, ErrInvalidPage) {
			return err
		}
		slow := d.cfg.LatencySLO > 0 && elapsed > d.cfg.LatencySLO
		d.probeResult(err == nil && !slow)
		return err
	default:
		start := d.cfg.Now()
		err := op()
		elapsed := d.cfg.Now().Sub(start)
		if errors.Is(err, ErrInvalidPage) {
			return err
		}
		d.record(err != nil, d.cfg.LatencySLO > 0 && elapsed > d.cfg.LatencySLO)
		return err
	}
}

// ReadPage implements Device.
func (d *BreakerDevice) ReadPage(id page.PageID, p *page.Page) error {
	return d.do("read", id, func() error { return d.backing.ReadPage(id, p) })
}

// WritePage implements Device.
func (d *BreakerDevice) WritePage(p *page.Page) error {
	return d.do("write", p.ID, func() error { return d.backing.WritePage(p) })
}

// Stats implements Device: the backing device's counters plus the
// rejections issued by this layer.
func (d *BreakerDevice) Stats() DeviceStats {
	s := d.backing.Stats()
	s.BreakerRejections += d.rejections.Load()
	return s
}

// backer is implemented by every wrapper device in this package; Find*
// helpers use it to walk a stack from the outermost layer inward.
type backer interface{ Backing() Device }

// FindBreaker walks a wrapper stack looking for a BreakerDevice.
func FindBreaker(d Device) (*BreakerDevice, bool) {
	for d != nil {
		if b, ok := d.(*BreakerDevice); ok {
			return b, true
		}
		w, ok := d.(backer)
		if !ok {
			return nil, false
		}
		d = w.Backing()
	}
	return nil, false
}

// FindDeadline walks a wrapper stack looking for a DeadlineDevice.
func FindDeadline(d Device) (*DeadlineDevice, bool) {
	for d != nil {
		if dl, ok := d.(*DeadlineDevice); ok {
			return dl, true
		}
		w, ok := d.(backer)
		if !ok {
			return nil, false
		}
		d = w.Backing()
	}
	return nil, false
}
