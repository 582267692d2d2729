// Package obs is the observability layer of the BP-Wrapper reproduction:
// a lock-free flight recorder for the buffer manager's transitions, a
// metrics registry that walks the pool's stats tree, and an HTTP server
// exposing both as Prometheus text and expvar-style JSON.
//
// The package sits below buffer in the import graph (it depends only on
// metrics, reqtrace and the standard library) so the pool can record
// events without cycles.
package obs

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"bpwrapper/internal/metrics"
)

// EventKind labels a flight-recorder event: one of the buffer manager's
// transitions. The wrapper's commits are counted (core.Stats), not
// recorded.
type EventKind uint8

const (
	// EvEvict: a frame was evicted. Arg1 = page id.
	EvEvict EventKind = iota + 1
	// EvQuarantinePark: a dirty page parked in the write-back quarantine.
	// Arg1 = page id.
	EvQuarantinePark
	// EvQuarantineFlush: a quarantined page was written back.
	// Arg1 = page id.
	EvQuarantineFlush
	// EvHealthChange: a shard's health state changed.
	// Arg1 = new state, Arg2 = previous state (buffer.HealthState values).
	EvHealthChange
	// EvShed: a miss was shed by admission control.
	// Arg1 = page id, Arg2 = health state at shed time.
	EvShed
	// EvPanic: a contained panic in a background-writer round. Arg1 = 1.
	EvPanic
)

// String returns the kind's short name, used in dumps and the events
// endpoint.
func (k EventKind) String() string {
	switch k {
	case EvEvict:
		return "evict"
	case EvQuarantinePark:
		return "quarantine-park"
	case EvQuarantineFlush:
		return "quarantine-flush"
	case EvHealthChange:
		return "health-change"
	case EvShed:
		return "shed"
	case EvPanic:
		return "panic-recovered"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one decoded flight-recorder entry.
type Event struct {
	Seq uint64 // global claim order within the recorder
	// Time is a coarse wall-clock timestamp: the clock is read on a
	// 1-in-clockEvery sample of records and cached in between, so an
	// event's stamp can be up to clockEvery events stale. Seq, not Time,
	// is the ordering authority.
	Time time.Time
	Kind EventKind
	Arg1 uint64
	Arg2 uint64
}

// clockEvery is the timestamp sampling period: Record reads the
// nanosecond clock on one in clockEvery events (must be a power of two)
// and reuses the cached reading otherwise. The miss path records an
// eviction per miss, so an always-on clock read would dominate the
// recorder's cost there.
const clockEvery = 16

// eventWords is an event's width in the ring: kind, arg1, arg2 and the
// cached clock reading, 48-byte slots with the two stamps.
const eventWords = 4

// Recorder is a fixed-size lock-free ring buffer of buffer-manager
// events — a flight recorder: the event encoding and the coarse clock over a
// metrics.Ring, which owns the slot protocol (wait-free writers, newest
// overwrite oldest, a snapshot refuses and counts a slot it catches
// mid-write rather than return it mixed).
//
// A nil *Recorder is valid and records nothing, so call sites need no
// enabled-checks.
type Recorder struct {
	ring  *metrics.Ring
	clock atomic.Int64 // cached UnixNano, refreshed every clockEvery records
}

// NewRecorder returns a recorder holding the most recent size events
// (rounded up to a power of two, minimum 8). A size ≤ 0 returns nil —
// the disabled recorder.
func NewRecorder(size int) *Recorder {
	if size <= 0 {
		return nil
	}
	return &Recorder{ring: metrics.NewRing(size, eventWords)}
}

// Record appends one event. Safe for concurrent use; no-op on a nil
// recorder. An enabled record is one atomic increment plus six plain
// atomic stores; the nanosecond clock is read only on a 1-in-clockEvery
// sample of records (see Event.Time), after the event is in its slot.
func (r *Recorder) Record(kind EventKind, arg1, arg2 uint64) {
	if r == nil {
		return
	}
	now := r.clock.Load()
	if now == 0 {
		now = time.Now().UnixNano()
		r.clock.Store(now)
	}
	ev := [eventWords]uint64{uint64(kind), arg1, arg2, uint64(now)}
	if i := r.ring.Put(ev[:]); (i+1)&(clockEvery-1) == 0 {
		r.clock.Store(time.Now().UnixNano()) // for the clockEvery records after this one
	}
}

// Seq returns the number of events ever recorded (including overwritten
// ones). Zero on a nil recorder.
func (r *Recorder) Seq() uint64 {
	if r == nil {
		return 0
	}
	return r.ring.Seq()
}

// Cap returns the ring capacity, 0 for a disabled recorder.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return r.ring.Cap()
}

// Dropped returns how many events have been overwritten before any reader
// saw them plus how many snapshot reads discarded a torn slot — the
// recorder's data-loss figure for exposition.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.ring.Dropped()
}

// Events returns a best-effort snapshot of the surviving ring contents in
// claim order (oldest first). Entries being overwritten during the read
// are skipped and counted. Nil recorders return nil.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, r.ring.Cap())
	r.ring.Snapshot(func(seq uint64, p []uint64) {
		out = append(out, Event{
			Seq:  seq,
			Time: time.Unix(0, int64(p[3])),
			Kind: EventKind(p[0]),
			Arg1: p[1],
			Arg2: p[2],
		})
	})
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// Dump writes the newest n surviving events to w, newest first and
// prefixed with label (n <= 0 writes every survivor). It is the rendering
// of /debug/events, torture-oracle failures and Pool.Close errors. A nil
// recorder writes a one-line note so failure output stays
// self-explanatory.
func (r *Recorder) Dump(w io.Writer, label string, n int) {
	if r == nil {
		fmt.Fprintf(w, "%s: flight recorder disabled\n", label)
		return
	}
	evs := r.Events()
	shown := len(evs)
	if n > 0 && shown > n {
		shown = n
	}
	fmt.Fprintf(w, "%s: flight recorder: newest %d of %d events (%d recorded, %d dropped)\n",
		label, shown, len(evs), r.Seq(), r.Dropped())
	for i := len(evs) - 1; i >= len(evs)-shown; i-- {
		ev := evs[i]
		fmt.Fprintf(w, "  [%d] %s %s arg1=%d arg2=%d\n",
			ev.Seq, ev.Time.Format("15:04:05.000000"), ev.Kind, ev.Arg1, ev.Arg2)
	}
}
