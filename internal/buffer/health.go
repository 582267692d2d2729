// The pool's health state machine and miss admission control.
//
// BP-Wrapper's contract is that nothing blocks the hot path; this file
// extends that contract to device failures. Hits never consult health at
// all — a resident page is served from memory regardless of how sick the
// device is. Misses, which must touch the device, pass an admission check
// driven by two inputs: the depth of the pool's dirty quarantine, and the
// read-only floor an operator lowers with Pool.SetReadOnly (bpserver's
// drain). The pool degrades in two steps instead of queueing unbounded
// work behind a device whose writes fail:
//
//	Healthy   — misses flow freely.
//	Degraded  — the quarantine is half full: misses are admission-
//	            controlled to a bounded number in flight; the excess is
//	            shed with ErrOverloaded instead of queued.
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
// because the pool is degraded (quarantine half full, too many
// misses in flight) or read-only (quarantine full, or the SetReadOnly
// floor lowered). The page is not cached and the device was not
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
	// Degraded: misses are bounded in flight; the excess is shed.
	Degraded
	// ReadOnly: every miss is shed; resident pages keep serving.
	ReadOnly
)

// String implements fmt.Stringer.
func (h HealthState) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case ReadOnly:
		return "read-only"
	default:
		return fmt.Sprintf("HealthState(%d)", int32(h))
	}
}

// maxInflightMisses bounds concurrently admitted misses while the pool is
// Degraded (a Healthy pool is unbounded — backpressure there is the
// device's own concurrency limit).
const maxInflightMisses = 8

// healthState holds the pool's health machinery. Embedded in shard.
type healthState struct {
	health       atomic.Int32 // HealthState, latched by evalHealth
	missInflight atomic.Int64 // admitted misses currently in flight
	maxInflight  int64        // Degraded-mode bound: maxInflightMisses; a field so a test can lower it

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

	shed              atomic.Int64 // misses refused with ErrOverloaded
	healthTransitions atomic.Int64
	quarRefusals      atomic.Int64 // dirty victims passed over by an eviction walk because the quarantine was full
}

// evalHealth recomputes the pool's health from its two inputs and
// latches the result, recording a flight-recorder event on change. It
// is called on the miss path (where its cost — an atomic load and the
// quarantine's length — is noise next to the device read it gates) and
// at metrics scrapes.
func (sh *shard) evalHealth() HealthState {
	if sh.forced.Load() {
		return sh.latchHealth(ReadOnly)
	}
	if sh.disabled {
		return Healthy
	}
	st := Healthy
	q := sh.quarantineLen()
	switch {
	case q >= sh.quarCap:
		st = ReadOnly
	case 2*q >= sh.quarCap:
		st = Degraded
	}
	return sh.latchHealth(st)
}

// latchHealth publishes a freshly evaluated health state, recording a
// flight-recorder event on change.
func (sh *shard) latchHealth(st HealthState) HealthState {
	for {
		old := sh.health.Load()
		if old == int32(st) {
			break
		}
		if sh.health.CompareAndSwap(old, int32(st)) {
			sh.healthTransitions.Add(1)
			sh.events.Record(obs.EvHealthChange, uint64(st), uint64(old))
			break
		}
	}
	return st
}

// admitMiss is the admission check a miss passes after winning the
// single-flight race and before any frame is claimed or device I/O
// issued. It returns the shed error, or whether the miss was counted in
// missInflight — the loader then decrements it when the miss resolves
// (either way). The in-flight counter is maintained in every state so a
// transition into Degraded sees the true load immediately.
func (sh *shard) admitMiss(id page.PageID) (counted bool, err error) {
	if sh.disabled && !sh.forced.Load() {
		return false, nil
	}
	st := sh.evalHealth()
	switch st {
	case ReadOnly:
		sh.shed.Add(1)
		return false, fmt.Errorf("buffer: page %v (pool read-only): %w", id, ErrOverloaded)
	case Degraded:
		if sh.missInflight.Load() >= sh.maxInflight {
			sh.shed.Add(1)
			return false, fmt.Errorf("buffer: page %v (%d misses in flight): %w", id, sh.maxInflight, ErrOverloaded)
		}
	}
	sh.missInflight.Add(1)
	return true, nil
}
