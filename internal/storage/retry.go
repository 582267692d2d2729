package storage

import (
	"sync"
	"sync/atomic"
	"time"

	"bpwrapper/internal/page"
)

// The back-off ladder: the first retry sleeps 500µs, each later one twice
// the last up to 50ms, and every sleep is jittered within ±20% by a seeded
// generator, decorrelating concurrent retriers.
const (
	baseBackoff = 500 * time.Microsecond
	maxBackoff  = 50 * time.Millisecond
	multiplier  = 2
	jitter      = 0.2
)

// RetryConfig shapes a RetryDevice.
type RetryConfig struct {
	// MaxAttempts is the total number of tries per operation (the first
	// attempt plus retries). Zero means 4.
	MaxAttempts int

	// Seed feeds the deterministic jitter generator.
	Seed int64

	// Sleep replaces time.Sleep, letting tests run retries without wall
	// time. Nil means time.Sleep.
	Sleep func(time.Duration)
}

// RetryDevice wraps a Device with bounded retries: operations that fail
// with a retryable error (see Retryable — transient faults and checksum
// mismatches) are reissued after an exponentially growing, jittered
// backoff, up to MaxAttempts total tries. Permanent errors and invalid
// arguments pass through immediately.
type RetryDevice struct {
	backing Device
	cfg     RetryConfig

	mu  sync.Mutex // guards rng
	rng uint64

	retries   atomic.Int64 // retry attempts issued
	exhausted atomic.Int64 // operations that failed all attempts
}

// NewRetryDevice wraps backing with retry/backoff per cfg.
func NewRetryDevice(backing Device, cfg RetryConfig) *RetryDevice {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	return &RetryDevice{
		backing: backing,
		cfg:     cfg,
		rng:     uint64(cfg.Seed)*0x9e3779b97f4a7c15 + 0x6a09e667f3bcc909,
	}
}

// Exhausted reports the number of operations that failed every attempt.
func (d *RetryDevice) Exhausted() int64 { return d.exhausted.Load() }

// jittered perturbs a nominal backoff by ±jitter deterministically.
func (d *RetryDevice) jittered(backoff time.Duration) time.Duration {
	d.mu.Lock()
	d.rng += 0x9e3779b97f4a7c15
	z := d.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	d.mu.Unlock()
	u := float64(z>>11)/(1<<53)*2 - 1 // uniform in [-1, 1)
	return time.Duration(float64(backoff) * (1 + jitter*u))
}

// do runs op with the retry protocol.
func (d *RetryDevice) do(op func() error) error {
	backoff := baseBackoff
	var err error
	for attempt := 0; attempt < d.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			d.cfg.Sleep(d.jittered(backoff))
			d.retries.Add(1)
			backoff = min(backoff*multiplier, maxBackoff)
		}
		if err = op(); err == nil || !Retryable(err) {
			return err
		}
	}
	d.exhausted.Add(1)
	return err
}

// ReadPage implements Device.
func (d *RetryDevice) ReadPage(id page.PageID, p *page.Page) error {
	return d.do(func() error { return d.backing.ReadPage(id, p) })
}

// WritePage implements Device.
func (d *RetryDevice) WritePage(p *page.Page) error {
	return d.do(func() error { return d.backing.WritePage(p) })
}

// Stats implements Device: the backing device's counters plus the retries
// issued by this layer.
func (d *RetryDevice) Stats() DeviceStats {
	s := d.backing.Stats()
	s.Retries += d.retries.Load()
	return s
}
