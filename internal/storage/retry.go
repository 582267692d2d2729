package storage

import (
	"sync"
	"sync/atomic"
	"time"

	"bpwrapper/internal/page"
)

// RetryConfig tunes a RetryDevice's bounded exponential backoff.
type RetryConfig struct {
	// MaxAttempts is the total number of tries per operation (the first
	// attempt plus retries). Zero means 4.
	MaxAttempts int

	// BaseBackoff is the sleep before the first retry. Zero means 500µs.
	BaseBackoff time.Duration

	// MaxBackoff caps the exponential growth. Zero means 50ms.
	MaxBackoff time.Duration

	// Multiplier grows the backoff between retries. Zero means 2.
	Multiplier float64

	// Jitter randomizes each sleep within ±Jitter fraction of the nominal
	// backoff, decorrelating concurrent retriers. Zero means 0.2; negative
	// disables jitter.
	Jitter float64

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
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 500 * time.Microsecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 50 * time.Millisecond
	}
	if cfg.Multiplier <= 0 {
		cfg.Multiplier = 2
	}
	if cfg.Jitter == 0 {
		cfg.Jitter = 0.2
	}
	if cfg.Jitter < 0 {
		cfg.Jitter = 0
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

// jittered perturbs a nominal backoff by ±Jitter deterministically.
func (d *RetryDevice) jittered(backoff time.Duration) time.Duration {
	if d.cfg.Jitter == 0 {
		return backoff
	}
	d.mu.Lock()
	d.rng += 0x9e3779b97f4a7c15
	z := d.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	d.mu.Unlock()
	u := float64(z>>11)/(1<<53)*2 - 1 // uniform in [-1, 1)
	s := time.Duration(float64(backoff) * (1 + d.cfg.Jitter*u))
	if s <= 0 {
		s = backoff
	}
	return s
}

// do runs op with the retry protocol.
func (d *RetryDevice) do(op func() error) error {
	backoff := d.cfg.BaseBackoff
	var err error
	for attempt := 0; attempt < d.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			d.cfg.Sleep(d.jittered(backoff))
			d.retries.Add(1)
			backoff = time.Duration(float64(backoff) * d.cfg.Multiplier)
			if backoff > d.cfg.MaxBackoff {
				backoff = d.cfg.MaxBackoff
			}
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
