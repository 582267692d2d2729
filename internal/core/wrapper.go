// Package core implements the BP-Wrapper framework from "BP-Wrapper: A
// System Framework Making Any Replacement Algorithms (Almost) Lock
// Contention Free" (Ding, Jiang & Zhang, ICDE 2009).
//
// BP-Wrapper interposes between transaction-processing threads and a
// lock-protected replacement algorithm (a replacer.Policy). It reduces the
// two lock costs the paper identifies:
//
//   - Lock acquisition cost, via *batching* (Section III-A): each thread
//     records page hits in a private FIFO queue and only takes the lock —
//     opportunistically with TryLock once the queue reaches the batch
//     threshold, or forcibly when the queue fills — to commit the whole
//     batch at once.
//   - Lock warm-up cost, via *prefetching* (Section III-B): immediately
//     before requesting the lock, the data the critical section will touch
//     is read (lock-free) so that it is already in the processor cache
//     while the lock is held. The walk runs only while the lock shows
//     contention (see Session.prefetch): a shorter holding time helps the
//     sessions queued behind the lock, and nobody else.
//
// Both techniques are independent of the wrapped algorithm, which is used
// unmodified — the framework property the paper's title claims.
//
// There is one way to commit: Session.round, the single lock-holding period
// in which hits (and a miss's eviction and admission) reach the policy. The
// configurations are three schedulers over it (Session.atThreshold) that
// differ only in what a session does at the threshold when the lock is
// busy: block (no batching), keep recording until the queue is full (the
// paper's protocol), or — beyond the paper — publish the batch in a
// per-session slot for the lock holder to apply and walk away (*flat
// combining*, Config.FlatCombining, see combine.go).
//
// A Wrapper is shared by all threads; each simulated backend owns a private
// Session (the per-thread FIFO queue of the paper, Figure 3/4). Sessions
// are not safe for concurrent use; the Wrapper is.
package core

import (
	"fmt"
	"sync/atomic"

	"bpwrapper/internal/metrics"
	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/reqtrace"
	"bpwrapper/internal/sched"
)

// Default queue tuning from the paper's evaluation (Section IV-C): "we set
// the FIFO queue size to 64, and batch threshold to 32".
const (
	DefaultQueueSize      = 64
	DefaultBatchThreshold = 32
)

// Config selects which BP-Wrapper techniques are active and tunes the
// batching queue. The zero value disables both techniques, yielding the
// paper's baseline behaviour (one lock acquisition per page access).
type Config struct {
	// Batching enables the per-session FIFO queue. When false every hit
	// acquires the lock immediately (the pg2Q / pgPre configurations).
	Batching bool

	// Prefetching enables the pre-lock metadata walk for policies that
	// implement replacer.Prefetcher. A session walks only when a request
	// for the policy lock — its own or another session's — has found the
	// lock held since the session's previous look (Stats.PrefetchWalks
	// counts the walks); with no contention the setting costs one counter
	// comparison per commit.
	Prefetching bool

	// QueueSize is the FIFO queue capacity S. Zero means
	// DefaultQueueSize. Ignored unless Batching is set.
	QueueSize int

	// BatchThreshold is the queue fill level T at which a commit is first
	// attempted with TryLock. Zero means half the queue size, the shape the
	// paper's sensitivity study (Table III) found robust. Values are
	// clamped to [1, QueueSize]. Ignored unless Batching is set.
	BatchThreshold int

	// FlatCombining replaces the TryLock-or-keep-accumulating commit
	// protocol with flat combining (see combine.go): at the batch
	// threshold a session publishes its batch in a per-session,
	// cache-line-padded slot and tries the lock once — on success it
	// becomes the combiner and applies every session's published batch; on
	// failure it swaps to a spare buffer and keeps recording, never
	// blocking, because the current lock holder drains its slot. The
	// blocking fall-back fires only when both the published batch and the
	// recording queue are full. Ignored unless Batching is set.
	FlatCombining bool

	// Validate, when non-nil, is called once a committed batch, under the
	// policy lock, and returns the entries to apply in order (batch filtered
	// in place, typically); the rest are dropped. The buffer manager uses it
	// to discard accesses whose frame was re-used for a different page since
	// they were queued (the BufferTag check of Section IV-B). With
	// FlatCombining a combiner calls it on other sessions' batches, from its
	// own goroutine, so it must be safe for concurrent use.
	Validate func(batch []Entry) []Entry

	// Tracer, when non-nil, receives request-trace spans from the commit
	// path (lock wait, policy batch apply) and the cross-thread
	// combiner-handoff spans of DESIGN.md §14. Sessions participate once
	// a trace context is attached with Session.SetTrace.
	Tracer *reqtrace.Tracer
}

// withDefaults resolves zero fields to their documented defaults.
func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = DefaultQueueSize
	}
	if c.BatchThreshold <= 0 {
		c.BatchThreshold = c.QueueSize / 2
	}
	if c.BatchThreshold < 1 {
		c.BatchThreshold = 1
	}
	if c.BatchThreshold > c.QueueSize {
		c.BatchThreshold = c.QueueSize
	}
	if !c.Batching {
		c.FlatCombining = false
	}
	return c
}

// Entry is one recorded page access, as Validate and a policy's batch hit
// (replacer.SlotBatcher) take it: the page and its buffer-tag snapshot.
type Entry = replacer.Access

// Stats aggregates the Wrapper's commit-path counters. It counts no
// accesses: the caller that records them (the buffer pool) keeps that count.
type Stats struct {
	// Commits counts lock-holding periods that applied at least one hit
	// entry — the session's own or, under flat combining, anyone's — on
	// every path: threshold commit, forced commit, Flush, miss, unbatched
	// hit. (Committed + Dropped) / Commits is the mean batch per period.
	Commits     int64
	Committed   int64 // hit entries applied to the policy
	Dropped     int64 // hit entries dropped by commit-time validation
	Lock        metrics.LockStats
	ForcedLocks int64 // blocking Locks taken for a batch that could not wait (queue full, Flush)
	TryCommits  int64 // lock-holding periods obtained via TryLock at the threshold

	// PrefetchWalks counts pre-lock metadata walks (Config.Prefetching):
	// zero while the policy lock is uncontended.
	PrefetchWalks int64

	// Flat-combining activity (Config.FlatCombining only).
	CombinedBatches int64 // other sessions' published batches applied by a combiner
	CombinedEntries int64 // entries in those batches
	HandoffSaved    int64 // publishes whose TryLock failed: batches handed to the combiner instead of blocking or re-accumulating

	// CombinerPanics counts panics contained inside a combiner drain (a
	// broken policy or validator); each leaves that drain incomplete but
	// the wrapper serviceable.
	CombinerPanics int64
}

// cacheLineSize separates counter groups with different writer populations
// so a store to one group does not invalidate another group's line.
const cacheLineSize = 64

// cachePad is inserted between independent writer groups in Wrapper.
type cachePad [cacheLineSize]byte

// commitCounters are written by whichever session is committing — at most
// one batch-commit writer at a time (they are bumped while or immediately
// after holding the policy lock), so they share a line group distinct from
// the lock word. prefetchWalks is bumped on the way to the lock instead, but
// only by sessions that saw the lock contended.
type commitCounters struct {
	commits       atomic.Int64
	committed     atomic.Int64
	dropped       atomic.Int64
	forcedLocks   atomic.Int64
	tryCommits    atomic.Int64
	prefetchWalks atomic.Int64
}

// combineCounters count flat-combining activity (written by combiners and
// by publishing sessions).
type combineCounters struct {
	combinedBatches atomic.Int64
	combinedEntries atomic.Int64
	handoffSaved    atomic.Int64
	combinerPanics  atomic.Int64
}

// Wrapper couples a replacement policy with its global lock and the
// BP-Wrapper techniques. All methods are safe for concurrent use; the
// per-thread entry points live on Session.
type Wrapper struct {
	// box is the policy view, set once in newWrapper: the policy plus the
	// two facts the lock-free paths read about it (whether Hit needs the
	// lock, and the prefetcher interface when enabled).
	box policyBox

	cfg Config

	fc *combiner // non-nil iff cfg.FlatCombining

	tracer *reqtrace.Tracer // nil-safe request tracer (cfg.Tracer)

	// sessionIDs allocates the per-wrapper session identities the
	// cross-thread handoff spans name ("applied by combiner run R owned
	// by session S").
	sessionIDs atomic.Uint64

	// combineRunIDs allocates combiner-run identities, one per
	// lock-holding period that drains at least one published batch.
	combineRunIDs atomic.Uint64

	// Commit-shape distributions, recorded once per commit/publish/drain
	// (never on the per-access fast path): how large batches are when they
	// commit, and how many published batches a combiner drains per
	// lock-holding period.
	batchSizes  *metrics.CountDist
	combineRuns *metrics.CountDist

	_    cachePad
	lock metrics.ContentionMutex
	_    cachePad
	cc   commitCounters
	_    cachePad
	fcc  combineCounters
	_    cachePad
}

// combineRunCap bounds the dedicated buckets of the combiner-run-length
// distribution; longer runs (more concurrent sessions than this) share
// the overflow bucket, whose exact maximum is still tracked.
const combineRunCap = 32

// policyBox is the view of the wrapped policy that hot paths read without
// the lock. It never changes after newWrapper.
type policyBox struct {
	policy      replacer.Policy
	slots       replacer.SlotPolicy     // the policy by slot (replacer.BySlot); nil unless the wrapper is slotted
	batch       replacer.SlotBatcher    // slots' batch hit; nil unless slots has one
	prefetcher  replacer.Prefetcher     // nil if unsupported or disabled
	slotWalk    replacer.SlotPrefetcher // the walk by slot; nil unless the wrapper is slotted and the policy has one
	lockFreeHit bool                    // policy.Hit needs no lock (clock family)
}

// New returns a Wrapper around policy configured by cfg, for a caller with
// no frames: the policy is driven by page id.
func New(policy replacer.Policy, cfg Config) *Wrapper { return newWrapper(policy, cfg, false) }

// NewSlotted is New for the caller that owns the frames — the buffer pool.
// Every tag its sessions pass to Hit must carry the slot of the frame the
// page occupies (BufferTag.Slot), and MissSlot is told the slot the page
// is loaded into; in return a policy that implements replacer.SlotPolicy is
// reached by slot, with no lookup under the lock. A policy that does not is
// still driven by id. Session.Miss, the frameless protocol, is not for such
// a wrapper.
func NewSlotted(policy replacer.Policy, cfg Config) *Wrapper { return newWrapper(policy, cfg, true) }

func newWrapper(policy replacer.Policy, cfg Config, slotted bool) *Wrapper {
	cfg = cfg.withDefaults()
	w := &Wrapper{
		cfg:         cfg,
		tracer:      cfg.Tracer,
		batchSizes:  metrics.NewCountDist(cfg.QueueSize),
		combineRuns: metrics.NewCountDist(combineRunCap),
	}
	w.box = policyBox{policy: policy, lockFreeHit: !replacer.HitNeedsLock(policy)}
	if slotted {
		w.box.slots = replacer.BySlot(policy)
		w.box.batch, _ = w.box.slots.(replacer.SlotBatcher)
	}
	if cfg.Prefetching {
		w.box.prefetcher, _ = policy.(replacer.Prefetcher)
		if slotted {
			w.box.slotWalk, _ = policy.(replacer.SlotPrefetcher)
		}
	}
	if cfg.FlatCombining {
		w.fc = &combiner{}
	}
	return w
}

// Policy returns the wrapped replacement policy. Callers must hold the
// wrapper's lock (via Locked) before touching it unless they have exclusive
// access to the wrapper.
func (w *Wrapper) Policy() replacer.Policy { return w.box.policy }

// Config returns the resolved configuration.
func (w *Wrapper) Config() Config { return w.cfg }

// LockHistograms snapshots the policy lock's contended-wait and
// sampled-hold distributions for exposition.
func (w *Wrapper) LockHistograms() (wait, hold metrics.HistogramSnapshot) {
	return w.lock.Histograms()
}

// BatchSizes returns the distribution of committed/published batch
// lengths.
func (w *Wrapper) BatchSizes() metrics.CountDistSnapshot { return w.batchSizes.Snapshot() }

// CombineRuns returns the distribution of combiner run lengths: how many
// published batches each combining lock-holding period drained (recorded
// only for periods that drained at least one).
func (w *Wrapper) CombineRuns() metrics.CountDistSnapshot { return w.combineRuns.Snapshot() }

// Stats returns a snapshot of the wrapper's counters.
func (w *Wrapper) Stats() Stats {
	return Stats{
		Commits:         w.cc.commits.Load(),
		Committed:       w.cc.committed.Load(),
		Dropped:         w.cc.dropped.Load(),
		Lock:            w.lock.Stats(),
		ForcedLocks:     w.cc.forcedLocks.Load(),
		TryCommits:      w.cc.tryCommits.Load(),
		PrefetchWalks:   w.cc.prefetchWalks.Load(),
		CombinedBatches: w.fcc.combinedBatches.Load(),
		CombinedEntries: w.fcc.combinedEntries.Load(),
		HandoffSaved:    w.fcc.handoffSaved.Load(),
		CombinerPanics:  w.fcc.combinerPanics.Load(),
	}
}

// Locked runs fn with the policy lock held. It is the escape hatch the
// buffer manager uses for operations outside the hit/miss protocol
// (invalidation, warm-up preloading).
func (w *Wrapper) Locked(fn func(replacer.Policy)) {
	w.lock.Lock()
	defer w.lock.Unlock()
	fn(w.box.policy)
}

// LockedSlots is Locked for the caller of NewSlotted: fn gets the policy's
// slot-keyed face.
func (w *Wrapper) LockedSlots(fn func(replacer.SlotPolicy)) {
	w.lock.Lock()
	defer w.lock.Unlock()
	fn(w.box.slots)
}

// CheckInvariants verifies the wrapper's cheap structural invariants under
// the policy lock: the policy's resident count within [0, Cap], and — when
// the policy implements replacer.Checker — the policy's own internal
// consistency (deep O(n) checks only in builds with the torture tag). It is
// safe to call concurrently with sessions; the stats identity (committed +
// dropped = hits recorded) holds only at quiescence, so the callers that
// know how many hits they recorded check it.
func (w *Wrapper) CheckInvariants() error {
	w.lock.Lock()
	defer w.lock.Unlock()
	pol := w.box.policy
	n, c := pol.Len(), pol.Cap()
	if n < 0 || n > c {
		return fmt.Errorf("core: policy %s: Len %d outside [0, Cap %d]", pol.Name(), n, c)
	}
	return replacer.Check(pol)
}

// NewSession returns the per-thread handle through which one backend
// records its page accesses. Sessions must not be shared between
// goroutines.
func (w *Wrapper) NewSession() *Session {
	s := &Session{w: w, id: w.sessionIDs.Add(1)}
	size := 1 // without batching, the one hit a round commits
	if w.cfg.Batching {
		size = w.cfg.QueueSize
	}
	s.queue = make([]Entry, 0, size)
	if w.fc != nil {
		s.slot = w.fc.register(s.id)
		s.fcBox = new([]Entry)
	}
	return s
}

// Session is the per-thread side of the framework: a private FIFO queue of
// uncommitted hit records (Figure 3 of the paper). Not safe for concurrent
// use.
type Session struct {
	w     *Wrapper
	id    uint64  // wrapper-unique identity, named by handoff spans
	queue []Entry // recorded hits no round has committed or published yet

	// trace is the request-trace context shared with the owning pool
	// session (SetTrace); nil disables span stamping. All Active methods
	// are nil-safe, so the untraced cost is one branch per site.
	trace *reqtrace.Active

	pf      []page.PageID // prefetch scratch, reused across commits: the ids to walk,
	pfSlots []uint32      // or, in a slotted wrapper, the slots

	// lockWaited is the policy lock's Waited count when this session last
	// looked: the prefetch gate (see prefetch).
	lockWaited int64

	slot   *pubSlot // flat-combining publication slot (cfg.FlatCombining)
	fcBox  *[]Entry // box that will carry s.queue on its next publish
	pubLen int      // length of the batch last published in slot (owner-only)
}

// SetTrace attaches a request-trace context to the session. The buffer
// pool shares one Active between a pool session and its core session, so
// spans stamped here land in the same trace as the pool's
// probe/pin/device spans. A nil context (the default) disables stamping.
func (s *Session) SetTrace(a *reqtrace.Active) { s.trace = a }

// ID returns the session's wrapper-unique identity, as named by the
// cross-thread handoff spans.
func (s *Session) ID() uint64 { return s.id }

// Hit records a buffer hit on id, following the paper's
// replacement_for_page_hit pseudo-code (Figure 4): the access is queued,
// and at the batch threshold — every access, without batching — the
// scheduler decides how the queue reaches the policy.
func (s *Session) Hit(id page.PageID, tag page.BufferTag) {
	w := s.w
	if w.box.lockFreeHit {
		// Clock-family policy: the hit is an atomic reference-bit update
		// and needs neither lock nor queue. This is the pgClock baseline.
		w.box.hit(id, tag.Slot)
		return
	}
	s.queue = append(s.queue, Entry{ID: id, Tag: tag})
	if w.cfg.Batching && len(s.queue) < w.cfg.BatchThreshold {
		return
	}
	s.atThreshold()
}

// atThreshold is the scheduler. There is one way to commit (round); the
// three configurations differ only in what a session does with a batch at
// the threshold when the policy lock is busy.
func (s *Session) atThreshold() {
	w := s.w
	switch {
	case !w.cfg.Batching:
		// Direct (pg2Q / pgPre): block, on every access.
		s.round(perAccess, page.InvalidPageID, 0, nil)
	case w.fc == nil:
		// The paper's protocol: keep recording and try again on the next
		// hit; block only when the queue is completely full.
		if _, _, held := s.round(tryOnce, page.InvalidPageID, 0, nil); !held && len(s.queue) >= w.cfg.QueueSize {
			s.round(cannotWait, page.InvalidPageID, 0, nil)
		}
	case s.slot.pub.Load() == nil:
		// Flat combining, previous batch drained: publish this one (round
		// does, before its one try) and walk away — whoever holds the lock
		// will drain the slot. This is the handoff the TryLock-or-block
		// protocol could not make. Only the owner stores into pub, so the
		// emptiness check cannot race with another publisher; a combiner
		// only ever transitions pub to nil.
		if _, _, held := s.round(tryOnce, page.InvalidPageID, 0, nil); !held {
			w.fcc.handoffSaved.Add(1)
		}
	case len(s.queue) >= w.cfg.QueueSize:
		// Flat combining, both buffers full: the bounded-memory fall-back.
		s.round(cannotWait, page.InvalidPageID, 0, nil)
	}
	// Otherwise the combiner has not reached the slot yet; keep recording.
}

// Miss records a buffer miss on id: the lock is always taken (the paper
// notes the acquisition cost is negligible next to the I/O a miss
// implies), any queued hits are committed first — preserving access order —
// and then the policy admits the page, returning the eviction victim.
// This is replacement_for_page_miss in Figure 4.
func (s *Session) Miss(id page.PageID, tag page.BufferTag) (victim page.PageID, evicted bool) {
	v, evicted, _ := s.round(missAdmit, id, 0, nil) // frameless: there is no slot to name
	return v.ID, evicted
}

// NoSlot is the slot a miss names when the caller has no free frame for it.
const NoSlot = ^uint32(0)

// MissSlot is Miss for the caller of NewSlotted, in the same one hold: after
// the queued hits it admits id into slot, a free frame the caller claimed, or,
// for NoSlot, into the slot of the victim, the first page of the eviction order
// that claim takes (replacer.SlotPolicy.EvictSlot; nil takes any). admitted is
// false only when claim took nothing; Seat tries again. The page is in the
// policy while the caller loads it into its claimed frame, which claim refuses.
func (s *Session) MissSlot(id page.PageID, slot uint32, claim func(replacer.Victim) bool) (victim replacer.Victim, admitted bool) {
	victim, admitted, _ = s.round(missSlot, id, slot, claim)
	return victim, admitted
}

// Seat is MissSlot's policy step alone, in a hold of its own, for a miss whose
// walk claimed nothing: it commits no hits.
func (w *Wrapper) Seat(id page.PageID, slot uint32, claim func(replacer.Victim) bool) (victim replacer.Victim, admitted bool) {
	w.lock.Lock()
	defer w.lock.Unlock()
	return w.box.seat(id, slot, claim)
}

// Flush commits any queued hit records with a blocking lock acquisition.
// Backends call it when going idle so their history is not stranded.
func (s *Session) Flush() {
	if s.Pending() > 0 {
		s.round(cannotWait, page.InvalidPageID, 0, nil)
	}
}

// Pending returns the number of uncommitted accesses in this session's
// queue (including, under flat combining, a published batch not yet
// drained by a combiner); used by tests and diagnostics.
func (s *Session) Pending() int {
	n := len(s.queue)
	if s.slot != nil && s.slot.pub.Load() != nil {
		// The batch still sitting in the slot is the one this session last
		// published: count its remembered length rather than dereferencing
		// the box, which a combiner may be draining (and recycling — a
		// write to the slice header) concurrently.
		n += s.pubLen
	}
	return n
}

// reason is why a session asks for the policy lock. It decides how the
// round acquires the lock, what it does to the policy besides applying
// hits, and which counters and spans the acquisition earns.
type reason uint8

const (
	// perAccess: the unbatched hit. Lock; every access does, so the wait
	// is no event and no slow phase.
	perAccess reason = iota
	// tryOnce: a batch reached the threshold. TryLock; a busy lock ends
	// the round with nothing applied and the scheduler decides what next.
	tryOnce
	// cannotWait: a batch with nowhere left to wait (queue full) or asked
	// not to (Flush). Lock, counted in ForcedLocks.
	cannotWait
	// missAdmit, missSlot: Miss and MissSlot. Lock — the wait is negligible
	// next to a miss's I/O — then admit id, which may evict, or seat it.
	missAdmit
	missSlot
)

// round is the one lock-holding period of the framework, and the only
// place hits reach the policy: prefetch gate, acquire (try or block), the
// session's published batch, its queue, the miss's admit or seat, every
// other session's published batch (flat combining), unlock, account.
//
// Per-session access order (the property Section III-A's private queues
// exist to preserve) holds because a session's unapplied accesses live in
// at most two places, always applied oldest first under one lock hold: the
// slot (published only into an empty slot, so at most one batch, older than
// anything recorded since) and then the queue, both ahead of the miss that
// follows them. Whoever else drains the slot does so under the same lock.
//
// ok is the miss's answer: evicted for missAdmit, admitted for missSlot.
// held is false only for a tryOnce that found the lock busy.
func (s *Session) round(why reason, id page.PageID, slot uint32, claim func(replacer.Victim) bool) (victim replacer.Victim, ok, held bool) {
	w := s.w
	s.prefetch(s.queue, id)
	own := len(s.queue) // what this round takes out of the recording queue
	// Flat combining publishes the batch before its one try, so that a busy
	// lock's holder can take it along. The cases name the torture harness's
	// interleaving points on the way to the lock.
	publish := why == tryOnce && w.fc != nil
	switch {
	case publish:
		s.publish()
		sched.Yield(sched.CoreFCPublish)
	case why >= missAdmit:
		sched.Yield(sched.CoreMissLock)
	default:
		sched.Yield(sched.CoreCommitTry)
	}

	// A wait the session had no choice about — a miss, which implies device
	// I/O, or a batch that cannot wait — is a slow phase: it is stamped with
	// Slow, which arms tail-keep, so a request stalled behind a long
	// lock-holding period is traceable even when head sampling skipped it.
	slow := why >= cannotWait
	stamp := slow || s.trace.Sampled()
	var t0, t1 int64
	if why == tryOnce {
		held = w.lock.TryLock()
	} else {
		if stamp {
			t0 = s.trace.Now()
		}
		w.lock.Lock()
		held = true
	}

	// Published batches drained in this round and the entries they held —
	// the session's own, then other sessions' — and all hit entries applied.
	var mine, mineN, others, othersN, applied int
	if held {
		if stamp {
			t1 = s.trace.Now()
		}
		sched.Yield(sched.CoreCommitApply)
		if w.fc != nil {
			pub := [1]*pubSlot{s.slot}
			mine, mineN = w.drain(s, pub[:])
		}
		if len(s.queue) > 0 { // a miss's or a flush's round may have none
			w.applyBatch(s.queue)
		}
		applied = mineN + len(s.queue)
		if why == missAdmit {
			victim, ok = w.box.admit(id, slot)
		} else if why == missSlot {
			victim, ok = w.box.seat(id, slot, claim)
		}
		if w.fc != nil {
			others, othersN = w.drain(s, *w.fc.slots.Load())
			applied += othersN
		}
		w.lock.Unlock()
		s.queue = s.queue[:0]
	}

	// The one accounting site, after the unlock. What only a traced round or
	// a combining one does is out of line: the unbatched hit comes through
	// here on every access and pays one branch for each.
	switch {
	case why == tryOnce && held:
		w.cc.tryCommits.Add(1)
	case why == cannotWait:
		w.cc.forcedLocks.Add(1)
	}
	if applied > 0 {
		w.cc.commits.Add(1)
	}
	if own > 0 && why != perAccess && (held || publish) {
		// A batch's size is observed once, when it leaves the recording
		// queue: applied here, or published for someone else to apply.
		w.batchSizes.Observe(own)
	}
	if mine+others > 0 {
		w.combinedRound(mine+others, others, othersN)
	}
	if held && stamp {
		s.stampRound(why, t0, t1, own, id)
	}
	return victim, ok, held
}

// combinedRound accounts for a round that drained published batches.
//
//go:noinline
func (w *Wrapper) combinedRound(batches, others, othersN int) {
	w.combineRuns.Observe(batches)
	if others > 0 {
		w.fcc.combinedBatches.Add(int64(others))
		w.fcc.combinedEntries.Add(int64(othersN))
	}
}

// stampRound emits a traced round's spans: the wait from t0 to t1, the
// policy's time from t1 to now.
//
//go:noinline
func (s *Session) stampRound(why reason, t0, t1 int64, own int, id page.PageID) {
	t2 := s.trace.Now()
	switch {
	case why >= cannotWait:
		s.trace.Slow(reqtrace.PhaseLockWait, t0, t1-t0, uint64(own), 0)
	case why == perAccess:
		s.trace.Span(reqtrace.PhaseLockWait, t0, t1-t0, uint64(own), 0)
	}
	s.trace.Span(reqtrace.PhasePolicyOp, t1, t2-t1, uint64(own), uint64(id))
}

// hit, admit and evict are the policy's Hit, Admit and Evict, by slot when
// the wrapper is slotted and by id when it is not; by id there is no
// EvictSlot to hand evict's claim to.
func (b *policyBox) hit(id page.PageID, slot uint32) {
	if b.slots != nil {
		b.slots.HitSlot(slot, id)
	} else {
		b.policy.Hit(id)
	}
}

func (b *policyBox) admit(id page.PageID, slot uint32) (victim replacer.Victim, evicted bool) {
	if b.slots != nil {
		return b.slots.AdmitSlot(slot, id)
	}
	victim.ID, evicted = b.policy.Admit(id)
	return victim, evicted
}

func (b *policyBox) evict(claim func(replacer.Victim) bool) (victim replacer.Victim, evicted bool) {
	if b.slots != nil {
		return b.slots.EvictSlot(claim)
	}
	victim.ID, evicted = b.policy.Evict()
	return victim, evicted
}

// seat admits id into slot, or, for NoSlot, into the slot of the first page
// claim takes. The slot is free: an admission that evicts there panics.
func (b *policyBox) seat(id page.PageID, slot uint32, claim func(replacer.Victim) bool) (victim replacer.Victim, admitted bool) {
	if slot == NoSlot {
		if victim, admitted = b.evict(claim); !admitted {
			return victim, false
		}
		slot = victim.Slot
	}
	if v, evicted := b.admit(id, slot); evicted {
		panic(fmt.Sprintf("core: %s: admitting %v into free slot %d evicted %v", b.policy.Name(), id, slot, v.ID))
	}
	return victim, true
}

// applyBatch validates a non-empty batch with one call and hands the live
// entries to the policy in order, with one call too if it takes batches by
// slot. Callers must hold the lock, which makes the caller the counters' only
// writer, so they are touched once a batch.
func (w *Wrapper) applyBatch(batch []Entry) {
	b, live := &w.box, batch
	if w.cfg.Validate != nil {
		live = w.cfg.Validate(batch)
	}
	if b.batch != nil {
		b.batch.HitSlots(live)
	} else {
		for _, e := range live {
			b.hit(e.ID, e.Tag.Slot)
		}
	}
	w.cc.committed.Add(int64(len(live)))
	if dropped := len(batch) - len(live); dropped > 0 {
		w.cc.dropped.Add(int64(dropped))
	}
}

// prefetch is the pre-lock walk of Section III-B: a lock-free read of the
// policy metadata the coming critical section will touch — the pages of
// entries and extra, the page about to be admitted — so that the lock is
// held for less time. A shorter hold only pays while someone is queued
// behind the lock, and the walk is not free, so it runs only if a request
// for the lock has found it held (a blocked Lock or a failed TryLock, this
// session's or another's) since this session last looked. A tryOnce that
// fails on a full queue therefore walks again on its way to the blocking
// Lock even if the gate was closed when the commit began: the failed
// TryLock has counted.
func (s *Session) prefetch(entries []Entry, extra page.PageID) {
	w := s.w
	b := &w.box
	if b.prefetcher == nil && b.slotWalk == nil {
		return
	}
	waited := w.lock.Waited()
	if waited == s.lockWaited {
		return
	}
	s.lockWaited = waited
	w.cc.prefetchWalks.Add(1)
	// The scratch is kept (possibly grown) so later walks do not allocate.
	if b.slotWalk != nil {
		// By slot the walk is of the entries' own metadata; the page about
		// to be admitted has none yet.
		slots := s.pfSlots[:0]
		for _, e := range entries {
			slots = append(slots, e.Tag.Slot)
		}
		b.slotWalk.PrefetchSlots(slots)
		s.pfSlots = slots
		return
	}
	ids := s.pf[:0]
	for _, e := range entries {
		ids = append(ids, e.ID)
	}
	if extra.Valid() {
		ids = append(ids, extra)
	}
	b.prefetcher.Prefetch(ids)
	s.pf = ids
}
