package storage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bpwrapper/internal/page"
)

// Error taxonomy for the fault-tolerance stack. Devices that fail wrap one
// of these sentinels so callers can classify failures with errors.Is:
//
//   - ErrTransient: the operation may succeed if retried (a RetryDevice
//     retries it automatically).
//   - ErrPermanent: retrying is pointless; the error must be surfaced.
//   - ErrCorruptPage: the bytes read do not match the checksum recorded at
//     write time — a torn or bit-rotted page. Retryable, because rereading
//     a transiently corrupted transfer can succeed.
var (
	ErrTransient   = errors.New("storage: transient device error")
	ErrPermanent   = errors.New("storage: permanent device error")
	ErrCorruptPage = errors.New("storage: page checksum mismatch")
)

// Retryable reports whether err is worth retrying: transient faults and
// checksum mismatches (the next read may return an intact copy); permanent
// errors and invalid-argument errors are not.
func Retryable(err error) bool {
	return errors.Is(err, ErrTransient) || errors.Is(err, ErrCorruptPage)
}

// FaultConfig tunes a FaultDevice's probabilistic injection. All
// probabilities are in [0, 1] and are evaluated with a deterministic
// seeded generator, so a given (seed, operation sequence) always injects
// the same faults.
type FaultConfig struct {
	// Seed feeds the deterministic fault generator.
	Seed int64

	// ReadFailProb is the probability that a read fails.
	ReadFailProb float64

	// WriteFailProb is the probability that a write fails.
	WriteFailProb float64

	// CorruptProb is the probability that a read succeeds but returns a
	// page with one byte flipped, modelling torn writes and bit rot. A
	// ChecksumDevice layered above detects these as ErrCorruptPage.
	CorruptProb float64

	// SpikeProb is the probability that an operation stalls for
	// SpikeLatency before proceeding, modelling a degraded device.
	SpikeProb float64

	// SpikeLatency is the stall duration. Zero with SpikeProb > 0 means
	// 1ms.
	SpikeLatency time.Duration

	// SpikeWriteOnly restricts latency spikes to writes, modelling a
	// device whose write path is wedged while reads stay healthy (the
	// "stuck write" chaos scenario). The spike variate is still drawn
	// for reads so the deterministic sequence does not shift.
	SpikeWriteOnly bool

	// Permanent makes injected failures wrap ErrPermanent instead of
	// ErrTransient, modelling a dead sector rather than a flaky bus.
	Permanent bool
}

// FaultDevice wraps a Device with deterministic, seedable fault injection:
// transient or permanent read/write errors, latency spikes, and page
// corruption. It is the library form of the ad-hoc flaky devices the
// failure tests used to hand-roll, and the substrate of the torture
// harness and of the bpbench -exp chaos experiment.
//
// Besides the probabilistic FaultConfig knobs, deterministic triggers are
// available for tests: FailNextReads/FailNextWrites fail an exact number
// of upcoming operations, and SetFailPage fails every read of one page
// until cleared. All methods are safe for concurrent use.
type FaultDevice struct {
	backing Device

	mu  sync.Mutex // guards rng and the probabilistic config
	rng uint64
	cfg FaultConfig

	failPage              atomic.Uint64 // PageID whose reads always fail (0 = none)
	failReads, failWrites atomic.Int64  // countdowns of operations to fail

	injectedReadFaults  atomic.Int64
	injectedWriteFaults atomic.Int64
	injectedCorruptions atomic.Int64
	injectedSpikes      atomic.Int64
}

// NewFaultDevice wraps backing with fault injection per cfg.
func NewFaultDevice(backing Device, cfg FaultConfig) *FaultDevice {
	if cfg.SpikeLatency <= 0 {
		cfg.SpikeLatency = time.Millisecond
	}
	return &FaultDevice{
		backing: backing,
		rng:     uint64(cfg.Seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d,
		cfg:     cfg,
	}
}

// FailNextReads makes the next n reads fail; n <= 0 clears the countdown.
func (d *FaultDevice) FailNextReads(n int64) { d.failReads.Store(n) }

// FailNextWrites makes the next n writes fail; n <= 0 clears the countdown.
func (d *FaultDevice) FailNextWrites(n int64) { d.failWrites.Store(n) }

// SetFailPage makes every read of id fail until cleared with
// page.InvalidPageID.
func (d *FaultDevice) SetFailPage(id page.PageID) { d.failPage.Store(uint64(id)) }

// SetReadFailRate replaces the probabilistic read-failure rate.
func (d *FaultDevice) SetReadFailRate(p float64) {
	d.mu.Lock()
	d.cfg.ReadFailProb = p
	d.mu.Unlock()
}

// SetWriteFailRate replaces the probabilistic write-failure rate. Setting
// it to 1 kills all writes; 0 restores the device.
func (d *FaultDevice) SetWriteFailRate(p float64) {
	d.mu.Lock()
	d.cfg.WriteFailProb = p
	d.mu.Unlock()
}

// SetCorruptRate replaces the probabilistic read-corruption rate.
func (d *FaultDevice) SetCorruptRate(p float64) {
	d.mu.Lock()
	d.cfg.CorruptProb = p
	d.mu.Unlock()
}

// SetSpike replaces the probabilistic latency-spike rate and duration.
// A non-positive latency keeps the current one.
func (d *FaultDevice) SetSpike(p float64, latency time.Duration) {
	d.mu.Lock()
	d.cfg.SpikeProb = p
	if latency > 0 {
		d.cfg.SpikeLatency = latency
	}
	d.mu.Unlock()
}

// SetSpikeWriteOnly restricts (or unrestricts) latency spikes to writes.
func (d *FaultDevice) SetSpikeWriteOnly(writeOnly bool) {
	d.mu.Lock()
	d.cfg.SpikeWriteOnly = writeOnly
	d.mu.Unlock()
}

// Spikes reports the latency spikes injected so far.
func (d *FaultDevice) Spikes() int64 { return d.injectedSpikes.Load() }

// Injected reports the faults injected so far: failed reads, failed
// writes, and corrupted reads.
func (d *FaultDevice) Injected() (reads, writes, corruptions int64) {
	return d.injectedReadFaults.Load(), d.injectedWriteFaults.Load(), d.injectedCorruptions.Load()
}

// takeTicket atomically consumes one unit of a failure countdown. The
// load-then-CAS loop makes concurrent callers claim distinct tickets (a
// plain Load-then-Add pair would double-decrement under contention).
func takeTicket(c *atomic.Int64) bool {
	for {
		n := c.Load()
		if n <= 0 {
			return false
		}
		if c.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// rand returns the next deterministic uniform variate in [0, 1).
// Callers must hold d.mu.
func (d *FaultDevice) rand() float64 {
	d.rng += 0x9e3779b97f4a7c15
	z := d.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// decide rolls the probabilistic dice for one operation in a single locked
// section so the variate sequence is deterministic for a given op order.
func (d *FaultDevice) decide(read bool) (fail, corrupt bool, spike time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	failProb := d.cfg.WriteFailProb
	if read {
		failProb = d.cfg.ReadFailProb
	}
	if d.cfg.SpikeProb > 0 && d.rand() < d.cfg.SpikeProb {
		if !read || !d.cfg.SpikeWriteOnly {
			spike = d.cfg.SpikeLatency
		}
	}
	if failProb > 0 && d.rand() < failProb {
		fail = true
	}
	if read && d.cfg.CorruptProb > 0 && d.rand() < d.cfg.CorruptProb {
		corrupt = true
	}
	return fail, corrupt, spike
}

func (d *FaultDevice) errFor(op string, id page.PageID) error {
	sentinel := ErrTransient
	d.mu.Lock()
	if d.cfg.Permanent {
		sentinel = ErrPermanent
	}
	d.mu.Unlock()
	return fmt.Errorf("storage: injected %s fault on page %v: %w", op, id, sentinel)
}

// ReadPage implements Device.
func (d *FaultDevice) ReadPage(id page.PageID, p *page.Page) error {
	if uint64(id) == d.failPage.Load() && id.Valid() {
		d.injectedReadFaults.Add(1)
		return d.errFor("read", id)
	}
	if takeTicket(&d.failReads) {
		d.injectedReadFaults.Add(1)
		return d.errFor("read", id)
	}
	fail, corrupt, spike := d.decide(true)
	if spike > 0 {
		d.injectedSpikes.Add(1)
		time.Sleep(spike)
	}
	if fail {
		d.injectedReadFaults.Add(1)
		return d.errFor("read", id)
	}
	if err := d.backing.ReadPage(id, p); err != nil {
		return err
	}
	if corrupt {
		d.mu.Lock()
		i := int(d.rand() * page.Size)
		d.mu.Unlock()
		if i >= page.Size {
			i = page.Size - 1
		}
		p.Data[i] ^= 0xFF
		d.injectedCorruptions.Add(1)
	}
	return nil
}

// WritePage implements Device.
func (d *FaultDevice) WritePage(p *page.Page) error {
	if takeTicket(&d.failWrites) {
		d.injectedWriteFaults.Add(1)
		return d.errFor("write", p.ID)
	}
	fail, _, spike := d.decide(false)
	if spike > 0 {
		d.injectedSpikes.Add(1)
		time.Sleep(spike)
	}
	if fail {
		d.injectedWriteFaults.Add(1)
		return d.errFor("write", p.ID)
	}
	return d.backing.WritePage(p)
}

// Stats implements Device: the backing device's counters plus the faults
// injected by this layer.
func (d *FaultDevice) Stats() DeviceStats {
	s := d.backing.Stats()
	s.ReadErrors += d.injectedReadFaults.Load()
	s.WriteErrors += d.injectedWriteFaults.Load()
	return s
}
