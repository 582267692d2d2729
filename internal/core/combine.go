// Flat combining (Config.FlatCombining): the third scheduler over the
// commit round (see Session.atThreshold and Session.round in wrapper.go).
//
// The paper's batching protocol leaves a session at the batch threshold
// with only two options when the lock is busy: keep accumulating (and
// eventually block when the queue fills) or block now. Flat combining
// (Hendler, Incze, Shavit & Tzafrir, SPAA 2010; see PAPERS.md) removes the
// dilemma: every session owns a cache-line-padded *publication slot*; at
// the threshold it publishes its batch in the slot and tries the lock
// exactly once. The winner becomes the *combiner* — its round applies its
// own batch plus every other session's published batch before unlocking —
// and the losers swap to a spare recording buffer and continue, never
// blocking, because the current lock holder is already committed to
// draining their slots. Every round drains the slots while it holds the
// lock, so misses and Flush, which must take the lock anyway, combine too.
//
// Per-session access order survives because a session has at most one
// batch in flight: it publishes only into an empty slot, so batch N is
// always applied — by whichever round swaps it out, under the lock — before
// batch N+1 can be published, and the session's own round claims its
// published batch ahead of its younger private queue (see round).
//
// Memory stays bounded without blocking in the common case: a session
// blocks only when its slot is still occupied AND its recording queue has
// filled — i.e. after threshold+QueueSize unapplied accesses — which
// requires the lock holder to be stuck for a whole queue's worth of this
// session's accesses. That fall-back mirrors the paper's forced commit and
// keeps the two-buffers-per-session bound.
//
// Buffer recycling: slot ownership transfers are atomic pointer swaps.
// The combiner, after applying a batch, parks the emptied buffer in the
// slot's done cell; the owner reclaims it for its next recording buffer,
// so steady-state publishing allocates nothing.
package core

import (
	"context"
	"runtime/trace"
	"sync"
	"sync/atomic"

	"bpwrapper/internal/reqtrace"
	"bpwrapper/internal/sched"
)

// pubSlot is one session's publication slot. The pub and done cells are
// padded away from neighbouring slots (and from whatever the slice header
// shares an allocation with) so a session's publish never contends with
// another session's cache lines — the slot is the only cross-thread
// contact point of the flat-combining fast path.
type pubSlot struct {
	_    cachePad
	pub  atomic.Pointer[[]Entry] // published batch awaiting a combiner
	done atomic.Pointer[[]Entry] // drained buffer returned for reuse

	// Publisher trace context (DESIGN.md §14): when the publishing request
	// is traced, the owner stores its trace ID and publish timestamp here
	// before the pub Store, and the combiner swaps them out to emit the
	// cross-thread PhaseEnqueue span ("enqueued → waited N ns → applied by
	// combiner run R"). The context is best-effort: if the owner republishes
	// in the instant between a combiner's pub swap and its pubTrace swap,
	// the handoff span can attach to the adjacent batch — an accepted
	// off-by-one-batch race; replacement tracing is advisory like the
	// batching it observes.
	pubTrace atomic.Uint64
	pubTime  atomic.Int64

	// owner is the registering session's wrapper-unique ID, named as the
	// publisher in handoff spans. Written once at registration.
	owner uint64

	_ cachePad
}

// takeSpare returns a recording buffer and its box: the pair the last
// combiner parked in done, or a fresh pair. Boxes (the *[]Entry cells the
// atomic pointers traffic in) are recycled along with their buffers, so a
// steady-state publish allocates nothing — not even the slice header the
// naive &batch escape would heap-box on every cycle.
func (sl *pubSlot) takeSpare(queueSize int) ([]Entry, *[]Entry) {
	if bp := sl.done.Swap(nil); bp != nil {
		return (*bp)[:0], bp
	}
	return make([]Entry, 0, queueSize), new([]Entry)
}

// recycle parks a drained batch box for the owning session to reclaim.
// Writing *bp before the atomic Store is safe: the store publishes with
// release semantics and the owner reads only after its acquire Swap.
func (sl *pubSlot) recycle(bp *[]Entry) {
	*bp = (*bp)[:0]
	sl.done.Store(bp)
}

// combiner holds the wrapper's slot registry: copy-on-write so the
// combining scan loads one pointer and never takes a lock.
type combiner struct {
	mu    sync.Mutex // serializes registration only
	slots atomic.Pointer[[]*pubSlot]
}

// register adds a new session's slot to the registry. owner is the
// session's wrapper-unique ID, recorded for handoff-span attribution.
func (c *combiner) register(owner uint64) *pubSlot {
	c.mu.Lock()
	defer c.mu.Unlock()
	sl := &pubSlot{owner: owner}
	var list []*pubSlot
	if old := c.slots.Load(); old != nil {
		list = append(list, *old...)
	}
	list = append(list, sl)
	c.slots.Store(&list)
	return sl
}

// drain applies the batches published in slots — the applying session's
// own, ahead of its younger queue, or every session's — and reports how
// many batches that was and how many entries they held. Callers must hold
// the policy lock. s is the applying session: its ID is stamped as the
// applier in cross-thread handoff spans.
func (w *Wrapper) drain(s *Session, slots []*pubSlot) (batches, entries int) {
	// Contain panics from the policy or validator: the caller still holds
	// the lock and will release it normally, so one poisoned entry stops
	// this drain (already-swapped batches are lost to the policy's
	// bookkeeping, never to the buffer manager — replacement state is
	// advisory) instead of unwinding through an unrelated session and
	// deadlocking everyone behind a never-released lock.
	defer func() {
		if r := recover(); r != nil {
			w.fcc.combinerPanics.Add(1)
		}
	}()
	// Annotate combiner drains in runtime/trace output (go test -trace,
	// bpbench with tracing): the region spans the whole drain so trace
	// viewers show how long combining extends the lock-holding period.
	// IsEnabled keeps the cost to one predictable branch when off.
	if trace.IsEnabled() {
		defer trace.StartRegion(context.Background(), "bpwrapper.combine").End()
	}
	var runID uint64 // lazily allocated: one per combining lock-holding period
	for _, sl := range slots {
		bp := sl.pub.Swap(nil)
		if bp == nil {
			continue
		}
		if sl == s.slot {
			// Claiming one's own batch is not a cross-thread handoff: just
			// clear the parked trace context so it cannot attach to a later
			// batch.
			sl.pubTrace.Store(0)
		} else if w.tracer != nil {
			// Cross-thread attribution: the publisher parked its trace
			// context in the slot; emit the enqueue→apply handoff span on
			// its trace, naming this combiner run and both sessions.
			if tid := sl.pubTrace.Swap(0); tid != 0 {
				if runID == 0 {
					runID = w.combineRunIDs.Add(1)
				}
				pubAt := sl.pubTime.Load()
				w.tracer.Emit(reqtrace.Span{
					Trace: tid, Phase: reqtrace.PhaseEnqueue,
					Flags: reqtrace.FlagCross,
					Start: pubAt, Dur: w.tracer.Now() - pubAt,
					Arg1: runID, Arg2: reqtrace.PackHandoff(sl.owner, s.id),
				})
			}
		}
		sched.Yield(sched.CoreFCCombine)
		w.applyBatch(*bp)
		batches++
		entries += len(*bp)
		sl.recycle(bp)
	}
	return batches, entries
}

// publish moves the recording queue into the session's (empty) slot and
// continues on the spare buffer.
func (s *Session) publish() {
	w := s.w
	box := s.fcBox
	*box = s.queue
	s.pubLen = len(s.queue)
	s.queue, s.fcBox = s.slot.takeSpare(w.cfg.QueueSize)
	if w.tracer != nil {
		// Park the publisher's trace context before the pub Store (whose
		// release ordering publishes it with the batch) so a combiner can
		// attribute the handoff. Untraced publishes clear it.
		if tid := s.trace.ID(); tid != 0 {
			s.slot.pubTime.Store(s.trace.Now())
			s.slot.pubTrace.Store(tid)
		} else {
			s.slot.pubTrace.Store(0)
		}
	}
	s.slot.pub.Store(box)
}
