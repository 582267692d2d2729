// The pool's health state machine and miss admission control.
//
// BP-Wrapper's contract is that nothing blocks the hot path; this file
// extends that contract to device failures. Hits never consult health at
// all — a resident page is served from memory regardless of how sick the
// device is. Misses, which must touch the device, pass an admission check
// driven by two inputs: the depth of the pool's dirty quarantine, and the
// read-only floor an operator lowers with Pool.SetReadOnly (bpserver's
// drain). The pool sheds misses instead of queueing unbounded work behind
// a device whose writes fail:
//
//	Healthy   — misses flow freely.
//	ReadOnly  — the quarantine is at capacity or the floor is lowered:
//	            every miss is shed immediately. Resident pages keep
//	            serving (including writes to them — the data is safe in
//	            memory and the quarantine protocol keeps eviction
//	            lossless), so a sick device degrades the pool to an
//	            in-memory cache instead of an error fountain.
//
// Health is computed pull-style on the miss path and at metrics scrapes —
// a couple of atomic loads plus the quarantine length — so there is no
// health-monitor goroutine to schedule, and the hit path pays nothing.
package buffer

import (
	"errors"
	"fmt"
	"sync/atomic"

	"bpwrapper/internal/obs"
	"bpwrapper/internal/page"
)

// ErrOverloaded is returned when a miss is shed by admission control
// because the pool is read-only (quarantine full, or the SetReadOnly floor
// lowered). The page is not cached and the device was not
// touched; callers should back off or serve degraded results. It deliberately does not wrap ErrTransient:
// retrying immediately is exactly the load the shed exists to refuse.
var ErrOverloaded = errors.New("buffer: pool overloaded, miss shed by admission control")

// ErrQuarantineFull is returned when an operation fails because the
// dirty quarantine is at capacity, so every dirty eviction would risk
// exceeding the durability bound. It wraps ErrNoUnpinnedBuffers so
// existing errors.Is(err, ErrNoUnpinnedBuffers) checks keep matching;
// new callers can distinguish overload (quarantine pressure) from a
// genuinely over-pinned pool.
var ErrQuarantineFull = fmt.Errorf("buffer: dirty quarantine at capacity: %w", ErrNoUnpinnedBuffers)

// HealthState is the pool's position in the degradation ladder.
type HealthState int32

const (
	// Healthy: misses flow freely.
	Healthy HealthState = iota
	// ReadOnly: every miss is shed; resident pages keep serving.
	ReadOnly
)

// String implements fmt.Stringer.
func (h HealthState) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case ReadOnly:
		return "read-only"
	default:
		return fmt.Sprintf("HealthState(%d)", int32(h))
	}
}

// healthState holds the pool's health machinery. Embedded in Pool.
type healthState struct {
	health atomic.Int32 // HealthState, latched by evalHealth

	// disabled switches the ladder off (a test's disableShedding): the
	// pool reports Healthy and never sheds. The quarantine cap still
	// bounds dirty evictions.
	disabled bool

	// forced pins the pool at ReadOnly regardless of quarantine state
	// (Pool.SetReadOnly): the graceful-drain floor a network front-end
	// lowers before flushing, so misses shed with ErrOverloaded while
	// resident pages keep serving. An operator
	// action, not a health verdict — it overrides disabled too.
	forced atomic.Bool

	shed         atomic.Int64 // misses refused with ErrOverloaded
	quarRefusals atomic.Int64 // dirty victims passed over by an eviction walk because the quarantine was full
}

// evalHealth recomputes the pool's health from its two inputs and
// latches the result, recording a flight-recorder event on change. It
// is called on the miss path (where its cost — an atomic load and the
// quarantine's length — is noise next to the device read it gates) and
// at metrics scrapes.
func (p *Pool) evalHealth() HealthState {
	if p.forced.Load() {
		return p.latchHealth(ReadOnly)
	}
	if p.disabled {
		return Healthy
	}
	st := Healthy
	if p.quarantineFull() {
		st = ReadOnly
	}
	return p.latchHealth(st)
}

// latchHealth publishes a freshly evaluated health state, recording a
// flight-recorder event on change.
func (p *Pool) latchHealth(st HealthState) HealthState {
	for {
		old := p.health.Load()
		if old == int32(st) {
			break
		}
		if p.health.CompareAndSwap(old, int32(st)) {
			p.events.Record(obs.EvHealthChange, uint64(st), uint64(old))
			break
		}
	}
	return st
}

// admitMiss is the admission check a miss passes after winning the
// single-flight race and before any frame is claimed or device I/O
// issued: a read-only pool sheds the miss.
func (p *Pool) admitMiss(id page.PageID) error {
	if p.evalHealth() == ReadOnly {
		p.shed.Add(1)
		return fmt.Errorf("buffer: page %v (pool read-only): %w", id, ErrOverloaded)
	}
	return nil
}
