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
	"time"

	"bpwrapper/internal/metrics"
)

// EventKind labels a flight-recorder event: one of the buffer manager's
// transitions. Traffic is counted, not recorded: the wrapper's commits in
// core.Stats, evictions and shed misses in the pool's Stats.
type EventKind uint8

const (
	// EvQuarantinePark: a dirty page parked in the write-back quarantine.
	// Arg1 = page id.
	EvQuarantinePark EventKind = iota + 1
	// EvQuarantineFlush: a quarantined page was written back.
	// Arg1 = page id.
	EvQuarantineFlush
	// EvHealthChange: the pool's health state changed.
	// Arg1 = new state, Arg2 = previous state (buffer.HealthState values).
	EvHealthChange
	// EvPanic: a contained panic in a background-writer round. Arg1 = 1.
	EvPanic
)

// String returns the kind's short name, used in dumps and the events
// endpoint.
func (k EventKind) String() string {
	switch k {
	case EvQuarantinePark:
		return "quarantine-park"
	case EvQuarantineFlush:
		return "quarantine-flush"
	case EvHealthChange:
		return "health-change"
	case EvPanic:
		return "panic-recovered"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one decoded flight-recorder entry.
type Event struct {
	Seq uint64 // global claim order within the recorder
	// Time is the wall clock read by the Record call that wrote the event.
	// Concurrent records can claim slots in the other order from their
	// clock reads, so Seq, not Time, is the ordering authority.
	Time time.Time
	Kind EventKind
	Arg1 uint64
	Arg2 uint64
}

// eventWords is an event's width in the ring: kind, arg1, arg2 and the
// clock reading, 48-byte slots with the two stamps.
const eventWords = 4

// Recorder is a fixed-size lock-free ring buffer of buffer-manager
// events — a flight recorder: the event encoding over a metrics.Ring,
// which owns the slot protocol (wait-free writers, newest overwrite
// oldest, a snapshot refuses and counts a slot it catches mid-write
// rather than return it mixed).
//
// A nil *Recorder is valid and records nothing, so call sites need no
// enabled-checks.
type Recorder struct {
	ring *metrics.Ring
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

// Record appends one event stamped with the current time. Safe for
// concurrent use; no-op on a nil recorder. An enabled record is one clock
// read plus one Ring.Put; the record sites are transitions, never a
// per-access or per-miss path.
func (r *Recorder) Record(kind EventKind, arg1, arg2 uint64) {
	if r == nil {
		return
	}
	ev := [eventWords]uint64{uint64(kind), arg1, arg2, uint64(time.Now().UnixNano())}
	r.ring.Put(ev[:])
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
