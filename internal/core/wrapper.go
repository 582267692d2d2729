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
// Beyond the paper, the package implements a *flat-combining* commit path
// (Config.FlatCombining, see combine.go): sessions publish their batches
// in per-session slots and whichever session wins the lock applies
// everyone's published work, so a session at the batch threshold never has
// to choose between blocking and re-accumulating.
//
// A Wrapper is shared by all threads; each simulated backend owns a private
// Session (the per-thread FIFO queue of the paper, Figure 3/4). Sessions
// are not safe for concurrent use; the Wrapper is.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bpwrapper/internal/metrics"
	"bpwrapper/internal/obs"
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

	// SharedQueue switches the batching queue from one-per-session to a
	// single queue shared by all sessions (guarded by its own mutex). The
	// paper rejects this design for its synchronization cost and loss of
	// per-thread access ordering (Section III-A); it is implemented here for
	// the ablation experiment that verifies that argument.
	SharedQueue bool

	// FlatCombining replaces the TryLock-or-keep-accumulating commit
	// protocol with flat combining (see combine.go): at the batch
	// threshold a session publishes its batch in a per-session,
	// cache-line-padded slot and tries the lock once — on success it
	// becomes the combiner and applies every session's published batch; on
	// failure it swaps to a spare buffer and keeps recording, never
	// blocking, because the current lock holder drains its slot. The
	// blocking fall-back fires only when both the published batch and the
	// recording queue are full. Ignored unless Batching is set;
	// incompatible with SharedQueue (SharedQueue wins).
	FlatCombining bool

	// AdaptiveThreshold lets each session tune its own batch threshold at
	// run time — an extension of the paper's Table III analysis, which
	// shows the best threshold sits strictly between "tiny batches"
	// (premature commits) and "threshold = queue size" (no TryLock
	// attempts left). A session lowers its threshold after a forced
	// blocking commit (it should have started trying earlier) and raises
	// it after a run of first-attempt TryLock successes (it can afford
	// bigger batches). The threshold moves within
	// [QueueSize/8, 3·QueueSize/4], starting from BatchThreshold.
	// Ignored unless Batching is set; incompatible with SharedQueue.
	AdaptiveThreshold bool

	// Validate, when non-nil, is consulted at commit time for each queued
	// entry; entries for which it returns false are dropped. The buffer
	// manager uses it to discard accesses whose frame was re-used for a
	// different page since the access was queued (the BufferTag check of
	// Section IV-B). With FlatCombining enabled the callback may be
	// invoked from any session's goroutine (the combiner applies other
	// sessions' batches), so it must be safe for concurrent use.
	Validate func(Entry) bool

	// Events, when non-nil, receives flight-recorder events from the
	// commit path: commits, TryLock failures, blocking fallbacks, flat-
	// combining publishes and combiner drains. A nil recorder costs one
	// predictable branch per event site.
	Events *obs.Recorder

	// Tracer, when non-nil, receives request-trace spans from the commit
	// path (lock wait, policy batch apply) and the cross-thread
	// combiner-handoff spans of DESIGN.md §15. Sessions participate once
	// a trace context is attached with Session.SetTrace.
	Tracer *reqtrace.Tracer

	// LockProfile, when non-nil, replaces the wrapper's default sampled
	// lock profile (DefaultSampleEvery with wait/hold histograms). Use it
	// to force always-on clocking in tests or to share histograms.
	LockProfile *metrics.LockProfile
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
	if c.SharedQueue {
		// The shared queue has no per-session state to adapt or publish.
		c.AdaptiveThreshold = false
		c.FlatCombining = false
	}
	return c
}

// Entry is one recorded page access: the page identity plus the buffer-tag
// snapshot used for commit-time validation.
type Entry struct {
	ID  page.PageID
	Tag page.BufferTag
}

// Stats aggregates the Wrapper's activity counters.
//
// The per-access counters (Accesses, Hits, Misses) are staged in
// session-private memory and folded into the shared aggregates at commit
// boundaries (commit, miss, flush, and every foldInterval accesses on the
// lock-free hit path), so a snapshot taken while sessions are mid-batch
// may lag by at most one queue's worth per session. Call Session.Flush
// for exact point-in-time numbers.
type Stats struct {
	Accesses    int64 // hits + misses recorded through the wrapper
	Hits        int64
	Misses      int64
	Commits     int64 // commit rounds (lock-holding periods for hits)
	Committed   int64 // hit entries applied to the policy
	Dropped     int64 // hit entries dropped by commit-time validation
	Lock        metrics.LockStats
	ForcedLocks int64 // commits that needed a blocking Lock (queue full)
	TryCommits  int64 // commits obtained via TryLock at the threshold

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

// Plus returns the field-wise sum of two snapshots. The sharded pool folds
// its per-shard wrapper snapshots through this one helper so every
// aggregate is produced the same way; summing internally consistent
// snapshots (Hits+Misses ≤ Accesses, see Wrapper.Stats) preserves that
// bound in the total.
func (s Stats) Plus(o Stats) Stats {
	s.Accesses += o.Accesses
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Commits += o.Commits
	s.Committed += o.Committed
	s.Dropped += o.Dropped
	s.Lock = s.Lock.Plus(o.Lock)
	s.ForcedLocks += o.ForcedLocks
	s.TryCommits += o.TryCommits
	s.PrefetchWalks += o.PrefetchWalks
	s.CombinedBatches += o.CombinedBatches
	s.CombinedEntries += o.CombinedEntries
	s.HandoffSaved += o.HandoffSaved
	s.CombinerPanics += o.CombinerPanics
	return s
}

// cacheLineSize separates counter groups with different writer populations
// so a store to one group does not invalidate another group's line (the
// false-sharing fix: before, eight adjacent atomics were bumped on every
// access from every thread).
const cacheLineSize = 64

// cachePad is inserted between independent writer groups in Wrapper.
type cachePad [cacheLineSize]byte

// aggCounters are the folded per-access aggregates. They are written only
// when a session folds its private counts (at most once per batch), never
// on the per-access fast path.
type aggCounters struct {
	accesses atomic.Int64
	hits     atomic.Int64
	misses   atomic.Int64
}

// commitCounters are written by whichever session is committing — at most
// one batch-commit writer at a time (they are bumped while or immediately
// after holding the policy lock), so they share a line group distinct from
// the lock word and the fold aggregates. prefetchWalks is bumped on the way
// to the lock instead, but only by sessions that saw the lock contended.
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
	// box holds the atomically-swappable policy view: the policy plus the
	// two facts the lock-free paths read about it (whether Hit needs the
	// lock, and the prefetcher interface when enabled). Hot paths load it
	// once per call; SwapPolicy republishes it under the policy lock, so
	// any lock holder sees a stable view.
	box atomic.Pointer[policyBox]

	// dynThreshold is a wrapper-wide batch-threshold override installed at
	// run time (SetBatchThreshold, driven by the control loop); 0 means
	// "use cfg.BatchThreshold". A session's own adaptive threshold takes
	// precedence over it.
	dynThreshold atomic.Int32

	cfg Config

	shared *sharedQueue // non-nil iff cfg.SharedQueue
	fc     *combiner    // non-nil iff cfg.FlatCombining

	events *obs.Recorder    // nil-safe flight recorder (cfg.Events)
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
	agg  aggCounters
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

// policyBox is the immutable view of the wrapped policy that hot paths
// read without the lock. It is published as a unit so a lock-free hit can
// never pair an old policy with a new policy's lockFreeHit flag (or vice
// versa) mid-swap.
type policyBox struct {
	policy      replacer.Policy
	prefetcher  replacer.Prefetcher // nil if unsupported or disabled
	lockFreeHit bool                // policy.Hit needs no lock (clock family)
}

// newPolicyBox derives the hot-path view for a policy under cfg.
func newPolicyBox(policy replacer.Policy, cfg Config) *policyBox {
	b := &policyBox{
		policy:      policy,
		lockFreeHit: !replacer.HitNeedsLock(policy),
	}
	if cfg.Prefetching {
		if pf, ok := policy.(replacer.Prefetcher); ok {
			b.prefetcher = pf
		}
	}
	return b
}

// New returns a Wrapper around policy configured by cfg.
func New(policy replacer.Policy, cfg Config) *Wrapper {
	cfg = cfg.withDefaults()
	w := &Wrapper{
		cfg:         cfg,
		events:      cfg.Events,
		tracer:      cfg.Tracer,
		batchSizes:  metrics.NewCountDist(cfg.QueueSize),
		combineRuns: metrics.NewCountDist(combineRunCap),
	}
	w.box.Store(newPolicyBox(policy, cfg))
	profile := cfg.LockProfile
	if profile == nil {
		// Default profile: sampled hold times plus wait/hold histograms,
		// so every wrapper's lock behaviour is exposable without setup.
		profile = &metrics.LockProfile{
			Wait: metrics.NewHistogram(100*time.Nanosecond, 10*time.Second, 60),
			Hold: metrics.NewHistogram(100*time.Nanosecond, 10*time.Second, 60),
		}
	}
	w.lock.SetProfile(profile)
	if cfg.SharedQueue && cfg.Batching {
		w.shared = &sharedQueue{
			entries: make([]Entry, 0, cfg.QueueSize),
			spare:   make([]Entry, 0, cfg.QueueSize),
		}
	}
	if cfg.FlatCombining {
		w.fc = &combiner{}
	}
	return w
}

// Policy returns the wrapped replacement policy. Callers must hold the
// wrapper's lock (via Locked) before touching it unless they have exclusive
// access to the wrapper; note the policy can change across lock-holding
// periods (SwapPolicy), so do not cache the returned value across them.
func (w *Wrapper) Policy() replacer.Policy { return w.box.Load().policy }

// Config returns the resolved configuration.
func (w *Wrapper) Config() Config { return w.cfg }

// LockProfile returns the profile installed on the policy lock (the
// default sampled profile unless Config.LockProfile overrode it). The
// attached histograms are live: snapshot them for exposition.
func (w *Wrapper) LockProfile() *metrics.LockProfile { return w.lock.Profile() }

// BatchSizes returns the distribution of committed/published batch
// lengths.
func (w *Wrapper) BatchSizes() metrics.CountDistSnapshot { return w.batchSizes.Snapshot() }

// CombineRuns returns the distribution of combiner run lengths: how many
// published batches each combining lock-holding period drained (recorded
// only for periods that drained at least one).
func (w *Wrapper) CombineRuns() metrics.CountDistSnapshot { return w.combineRuns.Snapshot() }

// Events returns the wrapper's flight recorder, nil when disabled.
func (w *Wrapper) Events() *obs.Recorder { return w.events }

// Stats returns a snapshot of the wrapper's counters. See the Stats type
// for the staleness bound on the per-access aggregates.
//
// The snapshot is internally consistent in one direction: Hits + Misses
// never exceed Accesses. Sessions fold their private counts in the order
// accesses, hits, misses (see Session.fold), so this reader loads hits and
// misses FIRST and accesses LAST — any hit or miss it observes comes from
// a fold whose accesses addition is already visible by the time accesses
// is read (Go atomics are sequentially consistent). Reading accesses first
// had the opposite skew: a fold landing between the loads made hits+misses
// transiently exceed accesses, which aggregation-over-shards then amplified.
func (w *Wrapper) Stats() Stats {
	hits := w.agg.hits.Load()
	misses := w.agg.misses.Load()
	return Stats{
		Accesses:        w.agg.accesses.Load(),
		Hits:            hits,
		Misses:          misses,
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

// ResetStats zeroes the wrapper's counters (including the lock's). It must
// not be called while the lock is held.
func (w *Wrapper) ResetStats() {
	w.agg.accesses.Store(0)
	w.agg.hits.Store(0)
	w.agg.misses.Store(0)
	w.cc.commits.Store(0)
	w.cc.committed.Store(0)
	w.cc.dropped.Store(0)
	w.cc.forcedLocks.Store(0)
	w.cc.tryCommits.Store(0)
	w.cc.prefetchWalks.Store(0)
	w.fcc.combinedBatches.Store(0)
	w.fcc.combinedEntries.Store(0)
	w.fcc.handoffSaved.Store(0)
	w.fcc.combinerPanics.Store(0)
	w.batchSizes.Reset()
	w.combineRuns.Reset()
	w.lock.Reset()
}

// Locked runs fn with the policy lock held. It is the escape hatch the
// buffer manager uses for operations outside the hit/miss protocol
// (invalidation, warm-up preloading).
func (w *Wrapper) Locked(fn func(replacer.Policy)) {
	w.lock.Lock()
	defer w.lock.Unlock()
	fn(w.box.Load().policy)
}

// SetBatchThreshold installs a wrapper-wide batch-threshold override that
// takes effect on each session's next threshold check (no session
// coordination needed: sessions re-read it per access). Values are clamped
// to [1, QueueSize]; t <= 0 removes the override, restoring the configured
// threshold. Sessions running AdaptiveThreshold keep their own value.
func (w *Wrapper) SetBatchThreshold(t int) {
	if t <= 0 {
		w.dynThreshold.Store(0)
		return
	}
	if t > w.cfg.QueueSize {
		t = w.cfg.QueueSize
	}
	w.dynThreshold.Store(int32(t))
}

// BatchThreshold reports the effective wrapper-wide batch threshold (the
// dynamic override if set, else the configured value).
func (w *Wrapper) BatchThreshold() int {
	if t := int(w.dynThreshold.Load()); t > 0 {
		return t
	}
	return w.cfg.BatchThreshold
}

// SwapPolicy replaces the wrapped policy with one built by factory at the
// same capacity, migrating the resident set: the old policy is drained in
// eviction order (least valuable first) and re-admitted into the new one in
// that order, so the most valuable pages are admitted last and the new
// policy's initial ranking approximates the old one's. The whole exchange
// happens under the policy lock, then the hot-path view is republished
// atomically.
//
// Admitting into a policy with queue-local bounds (2Q's A1in, say) can
// evict even below total capacity; such pages fall out of the new policy's
// tracking while their frames stay resident. They are returned as residue
// for the caller (the buffer shard) to reclaim through its normal victim
// path — dropping them silently would strand unevictable frames.
//
// Lock-free hits racing the swap may deliver a reference-bit update to the
// retired policy object (harmless: it is garbage afterwards) or batch into
// queues applied later to the new policy (tag validation still applies).
// Both are the same advisory staleness batching already accepts.
func (w *Wrapper) SwapPolicy(factory replacer.Factory) (from, to string, residue []page.PageID) {
	w.lock.Lock()
	defer w.lock.Unlock()
	old := w.box.Load()
	next := factory(old.policy.Cap())
	from, to = old.policy.Name(), next.Name()
	for {
		id, ok := old.policy.Evict()
		if !ok {
			break
		}
		if v, ev := next.Admit(id); ev {
			residue = append(residue, v)
		}
	}
	w.box.Store(newPolicyBox(next, w.cfg))
	return from, to, residue
}

// CheckInvariants verifies the wrapper's cheap structural invariants under
// the policy lock: the policy's resident count within [0, Cap], and — when
// the policy implements replacer.Checker — the policy's own internal
// consistency (deep O(n) checks only in builds with the torture tag). It is
// safe to call concurrently with sessions; the stats identities (accesses =
// hits + misses, committed + dropped = hits) hold only at quiescence and
// are checked by the torture harness instead.
func (w *Wrapper) CheckInvariants() error {
	w.lock.Lock()
	defer w.lock.Unlock()
	pol := w.box.Load().policy
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
	if w.cfg.Batching && !w.cfg.SharedQueue {
		s.queue = make([]Entry, 0, w.cfg.QueueSize)
	}
	if w.fc != nil {
		s.slot = w.fc.register(s.id)
		s.fcBox = new([]Entry)
	}
	return s
}

// foldInterval bounds the staleness of the folded aggregates on the
// lock-free hit path (clock family), which has no commit boundary to fold
// at.
const foldInterval = 1024

// Session is the per-thread side of the framework: a private FIFO queue of
// uncommitted hit records (Figure 3 of the paper). Not safe for concurrent
// use.
type Session struct {
	w     *Wrapper
	id    uint64  // wrapper-unique identity, named by handoff spans
	queue []Entry // nil when batching is off or the shared queue is in use

	// trace is the request-trace context shared with the owning pool
	// session (SetTrace); nil disables span stamping. All Active methods
	// are nil-safe, so the untraced cost is one branch per site.
	trace *reqtrace.Active

	// Per-session access counters: plain ints bumped only by the owning
	// goroutine on the per-access fast path and folded into the wrapper's
	// shared aggregates at commit boundaries. This keeps the hot path free
	// of shared-cache-line traffic (the false-sharing fix).
	accesses  int64
	hits      int64
	misses    int64
	sinceFold int

	pf []page.PageID // prefetch id scratch, reused across commits

	// lockWaited is the policy lock's Waited count when this session last
	// looked: the prefetch gate (see prefetch).
	lockWaited int64

	slot   *pubSlot // flat-combining publication slot (cfg.FlatCombining)
	fcBox  *[]Entry // box that will carry s.queue on its next publish
	pubLen int      // length of the batch last published in slot (owner-only)

	// Adaptive-threshold state (cfg.AdaptiveThreshold only).
	threshold int // current per-session batch threshold
	trialRuns int // consecutive first-attempt TryLock successes
}

// SetTrace attaches a request-trace context to the session. The buffer
// pool shares one Active between a pool session and its per-shard core
// sessions, so spans stamped here land in the same trace as the pool's
// probe/pin/device spans. A nil context (the default) disables stamping.
func (s *Session) SetTrace(a *reqtrace.Active) { s.trace = a }

// ID returns the session's wrapper-unique identity, as named by the
// cross-thread handoff spans.
func (s *Session) ID() uint64 { return s.id }

// note stages one access in the session-private counters.
func (s *Session) note(hit bool) {
	s.accesses++
	if hit {
		s.hits++
	} else {
		s.misses++
	}
	s.sinceFold++
}

// fold flushes the session-private counters into the wrapper's shared
// aggregates. Called at commit boundaries, where the session is already
// paying for shared-state traffic.
func (s *Session) fold() {
	if s.accesses == 0 {
		return
	}
	w := s.w
	w.agg.accesses.Add(s.accesses)
	w.agg.hits.Add(s.hits)
	w.agg.misses.Add(s.misses)
	s.accesses, s.hits, s.misses, s.sinceFold = 0, 0, 0, 0
}

// Threshold reports the session's current batch threshold: the session's
// own adaptive value if AdaptiveThreshold has moved it, else the wrapper's
// dynamic override (SetBatchThreshold), else the configured value.
func (s *Session) Threshold() int {
	if s.threshold > 0 {
		return s.threshold
	}
	if t := int(s.w.dynThreshold.Load()); t > 0 {
		return t
	}
	return s.w.cfg.BatchThreshold
}

// adaptDown reacts to a forced blocking commit: start trying earlier.
func (s *Session) adaptDown() {
	if !s.w.cfg.AdaptiveThreshold {
		return
	}
	step := s.w.cfg.QueueSize / 8
	if step < 1 {
		step = 1 // tiny queues: QueueSize/8 rounds to 0, which would freeze adaptation
	}
	s.trialRuns = 0
	s.threshold = s.Threshold() - step
	if s.threshold < step {
		s.threshold = step
	}
}

// adaptUp reacts to a sustained run of first-attempt TryLock successes:
// larger batches amortize better and the lock clearly has headroom.
func (s *Session) adaptUp() {
	if !s.w.cfg.AdaptiveThreshold {
		return
	}
	s.trialRuns++
	if s.trialRuns < 8 {
		return
	}
	s.trialRuns = 0
	max := 3 * s.w.cfg.QueueSize / 4
	if max < 1 {
		max = 1
	}
	s.threshold = s.Threshold() + 1
	if s.threshold > max {
		s.threshold = max
	}
}

// Hit records a buffer hit on id, following the paper's
// replacement_for_page_hit pseudo-code (Figure 4). With batching enabled
// the access is queued and possibly committed in a batch; otherwise the
// lock is taken immediately.
func (s *Session) Hit(id page.PageID, tag page.BufferTag) {
	w := s.w
	s.note(true)
	b := w.box.Load()
	if b.lockFreeHit {
		// Clock-family policy: the hit is an atomic reference-bit update
		// and needs neither lock nor queue. This is the pgClock baseline.
		// A SwapPolicy racing this delivers the bit to the retired policy
		// object — lost advice, not corruption.
		b.policy.Hit(id)
		if s.sinceFold >= foldInterval {
			s.fold()
		}
		return
	}
	if !w.cfg.Batching {
		// No batching (pg2Q / pgPre): one lock acquisition per access.
		s.prefetch(nil, id)
		tracing := s.trace.Sampled()
		var t0, t1 int64
		if tracing {
			t0 = s.trace.Now()
		}
		w.lock.Lock()
		if tracing {
			t1 = s.trace.Now()
		}
		w.applyBatch([]Entry{{ID: id, Tag: tag}})
		w.lock.Unlock()
		if tracing {
			now := s.trace.Now()
			s.trace.Span(reqtrace.PhaseLockWait, -1, t0, t1-t0, 0, 0)
			s.trace.Span(reqtrace.PhasePolicyOp, -1, t1, now-t1, 1, 0)
		}
		w.cc.commits.Add(1)
		s.fold()
		return
	}
	if w.shared != nil {
		w.shared.record(s, Entry{ID: id, Tag: tag})
		// The shared queue is the rejected, always-contending design; its
		// sessions have no private commit boundary, so fold every access.
		s.fold()
		return
	}
	s.queue = append(s.queue, Entry{ID: id, Tag: tag})
	if len(s.queue) < s.Threshold() {
		return
	}
	// Threshold reached: try to commit opportunistically. Flat combining
	// publishes and never blocks; the paper's protocol blocks only when
	// the queue is completely full.
	if w.fc != nil {
		s.fcCommit()
		return
	}
	s.commit(false)
}

// Miss records a buffer miss on id: the lock is always taken (the paper
// notes the acquisition cost is negligible next to the I/O a miss
// implies), any queued hits are committed first — preserving access order —
// and then the policy admits the page, returning the eviction victim.
// This is replacement_for_page_miss in Figure 4.
func (s *Session) Miss(id page.PageID, tag page.BufferTag) (victim page.PageID, evicted bool) {
	return s.miss(id, true)
}

// MissBegin is the first half of the two-phase miss protocol the buffer
// manager uses: it records the miss, commits any queued hits (preserving
// access order, as in Figure 4), and — when the policy is at capacity —
// evicts a victim to make room, WITHOUT admitting the missing page. The
// caller loads the page and then calls MissAdmit.
//
// Keeping the in-flight page out of the policy until its frame exists means
// concurrent loaders can never choose each other's unfinished pages as
// victims — the frameless-resident deadlock a single-phase protocol allows.
// Single-phase Miss remains available for standalone (simulation, trace
// replay) use, where pages have no frames at all.
func (s *Session) MissBegin(id page.PageID, tag page.BufferTag) (victim page.PageID, evicted bool) {
	return s.miss(id, false)
}

// miss is Miss (admit) and MissBegin (make room only).
func (s *Session) miss(id page.PageID, admit bool) (victim page.PageID, evicted bool) {
	w := s.w
	s.note(false)
	s.fold()
	s.prefetch(s.queue, id)
	sched.Yield(sched.CoreMissLock)
	// The miss path always blocks on the lock and implies device I/O, so
	// the wait is stamped with Slow: an SLO-crossing miss is traceable even
	// when head sampling skipped it.
	t0 := s.trace.Now()
	w.lock.Lock()
	t1 := s.trace.Now()
	s.trace.Slow(reqtrace.PhaseLockWait, -1, t0, t1-t0, uint64(len(s.queue)), 0)
	s.applyPublished()
	pending := len(s.queue)
	var stolen sqTraceCtx
	if w.shared != nil {
		pending, stolen = w.shared.drain(w)
	} else {
		w.applyBatch(s.queue)
	}
	pol := w.box.Load().policy
	switch {
	case admit:
		victim, evicted = pol.Admit(id)
	case pol.Len() >= pol.Cap():
		victim, evicted = pol.Evict()
	}
	if w.fc != nil {
		w.combineLocked(s)
	}
	w.lock.Unlock()
	s.trace.Span(reqtrace.PhasePolicyOp, -1, t1, s.trace.Now()-t1, uint64(pending), uint64(id))
	w.emitSharedHandoff(stolen, s)
	if pending > 0 {
		w.cc.commits.Add(1)
		w.batchSizes.Observe(pending)
	}
	s.queue = s.queue[:0]
	return victim, evicted
}

// MissAdmit is the second half of the two-phase miss protocol: the page
// has been loaded into its frame and becomes resident in the policy. In
// the rare case a concurrent miss consumed the slot MissBegin freed, Admit
// evicts again and the victim is returned for the caller to reclaim.
func (s *Session) MissAdmit(id page.PageID) (victim page.PageID, evicted bool) {
	w := s.w
	w.lock.Lock()
	victim, evicted = w.box.Load().policy.Admit(id)
	w.lock.Unlock()
	return victim, evicted
}

// Flush commits any queued hit records with a blocking lock acquisition.
// Backends call it when going idle so their history is not stranded. It
// also folds the session's staged access counters, making Wrapper.Stats
// exact for this session.
func (s *Session) Flush() {
	w := s.w
	s.fold()
	if w.shared != nil {
		if w.shared.pending() == 0 {
			return
		}
		s.prefetch(nil, page.InvalidPageID)
		w.lock.Lock()
		w.shared.drainAndUnlock(s)
		return
	}
	if w.fc != nil {
		s.fcFlush()
		return
	}
	if len(s.queue) == 0 {
		return
	}
	s.commit(true)
}

// Pending returns the number of uncommitted accesses in this session's
// queue (including, under flat combining, a published batch not yet
// drained by a combiner); used by tests and diagnostics.
func (s *Session) Pending() int {
	if s.w.shared != nil {
		return s.w.shared.pending()
	}
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

// commit applies the session's queued entries under the lock. When force
// is false it follows the paper's protocol: TryLock at the threshold,
// falling back to a blocking Lock only if the queue is full.
func (s *Session) commit(force bool) {
	w := s.w
	defer s.fold()
	walked := s.prefetch(s.queue, page.InvalidPageID)
	sched.Yield(sched.CoreCommitTry)
	if force {
		t0 := s.trace.Now()
		w.lock.Lock()
		// A forced Lock is a slow phase: the wait arms tail-keep, so a
		// request stalled behind a long lock-holding period is traceable
		// even when head sampling skipped it.
		s.trace.Slow(reqtrace.PhaseLockWait, -1, t0, s.trace.Now()-t0, uint64(len(s.queue)), 0)
		w.cc.forcedLocks.Add(1)
		w.events.Record(obs.EvForcedLock, uint64(len(s.queue)), 0)
	} else if w.lock.TryLock() {
		w.cc.tryCommits.Add(1)
		w.events.Record(obs.EvCommit, uint64(len(s.queue)), 0)
		if len(s.queue) == s.Threshold() {
			// First-attempt success: the lock has headroom.
			s.adaptUp()
		}
	} else {
		if len(s.queue) < w.cfg.QueueSize {
			// Lock busy and queue not yet full: keep accumulating.
			w.events.Record(obs.EvTryFail, uint64(len(s.queue)), 0)
			return
		}
		if !walked {
			// The lock is held this instant, which the failed TryLock has
			// counted: the gate is open.
			s.prefetch(s.queue, page.InvalidPageID)
		}
		t0 := s.trace.Now()
		w.lock.Lock()
		s.trace.Slow(reqtrace.PhaseLockWait, -1, t0, s.trace.Now()-t0, uint64(len(s.queue)), 0)
		w.cc.forcedLocks.Add(1)
		w.events.Record(obs.EvForcedLock, uint64(len(s.queue)), 0)
		// The queue filled before any TryLock succeeded: start trying
		// earlier next time.
		s.adaptDown()
	}
	sched.Yield(sched.CoreCommitApply)
	tracing := s.trace.Sampled()
	var tApply int64
	if tracing {
		tApply = s.trace.Now()
	}
	w.applyBatch(s.queue)
	w.lock.Unlock()
	if tracing {
		s.trace.Span(reqtrace.PhasePolicyOp, -1, tApply, s.trace.Now()-tApply, uint64(len(s.queue)), 0)
	}
	w.cc.commits.Add(1)
	w.batchSizes.Observe(len(s.queue))
	s.queue = s.queue[:0]
}

// applyBatch validates queued entries and delivers them to the policy in
// order. Callers must hold the lock, which also pins the policy box
// (SwapPolicy republishes it only while holding the same lock) and makes
// the caller the counters' only writer, so both are touched once a batch.
func (w *Wrapper) applyBatch(batch []Entry) {
	if len(batch) == 0 {
		return
	}
	pol, validate := w.box.Load().policy, w.cfg.Validate
	dropped := 0
	for _, e := range batch {
		if validate != nil && !validate(e) {
			dropped++
			continue
		}
		pol.Hit(e.ID)
	}
	w.cc.committed.Add(int64(len(batch) - dropped))
	if dropped > 0 {
		w.cc.dropped.Add(int64(dropped))
	}
}

// prefetch is the pre-lock walk of Section III-B: a lock-free read of the
// policy metadata the coming critical section will touch — the pages of
// entries (of the shared queue under SharedQueue) and extra, the page about
// to be admitted — so that the lock is held for less time. A shorter hold
// only pays while someone is queued behind the lock, and the walk is not
// free, so it runs only if a request for the lock has found it held (a
// blocked Lock or a failed TryLock, this session's or another's) since this
// session last looked. It reports whether it walked.
func (s *Session) prefetch(entries []Entry, extra page.PageID) bool {
	w := s.w
	pf := w.box.Load().prefetcher
	if pf == nil {
		return false
	}
	waited := w.lock.Waited()
	if waited == s.lockWaited {
		return false
	}
	s.lockWaited = waited
	ids := s.pf[:0]
	if w.shared != nil {
		ids = w.shared.appendIDs(ids)
	}
	for _, e := range entries {
		ids = append(ids, e.ID)
	}
	if extra.Valid() {
		ids = append(ids, extra)
	}
	pf.Prefetch(ids)
	s.pf = ids // keep the (possibly grown) scratch: later walks do not allocate
	w.cc.prefetchWalks.Add(1)
	return true
}

// sqTraceCtx is the publisher trace context carried with a shared-queue
// batch: which traced request recorded into the batch, when, and from
// which session. The shared queue interleaves all sessions' accesses, so
// the context is the LAST traced recorder — a best-effort attribution
// matching the design's own ambiguity (the paper rejects this queue
// partly because per-thread ordering is lost).
type sqTraceCtx struct {
	id   uint64 // trace ID (0: no traced recorder in this batch)
	at   int64  // when the traced access was recorded
	sess uint64 // recording session's ID
}

// emitSharedHandoff emits the cross-thread handoff span for a stolen
// shared-queue batch, attributing the enqueue→apply wait to the last
// traced recorder's trace.
func (w *Wrapper) emitSharedHandoff(tc sqTraceCtx, applier *Session) {
	if w.tracer == nil || tc.id == 0 {
		return
	}
	w.tracer.Emit(reqtrace.Span{
		Trace: tc.id, Phase: reqtrace.PhaseEnqueue, Shard: -1,
		Flags: reqtrace.FlagCross,
		Start: tc.at, Dur: w.tracer.Now() - tc.at,
		Arg1: w.combineRunIDs.Add(1), Arg2: reqtrace.PackHandoff(tc.sess, applier.id),
	})
}

// sharedQueue is the rejected alternative design of Section III-A: one
// FIFO queue shared by all sessions, with its own mutex. Implemented only
// for the ablation experiment.
//
// Entries leave the queue only while the policy lock is held (drain), so
// batches are applied in the order they were recorded. A session that has
// to wait for the lock therefore leaves its batch queued, where every other
// session can still append one entry before it too reaches the full queue
// and waits: the queue holds at most QueueSize + sessions entries.
type sharedQueue struct {
	mu      sync.Mutex
	entries []Entry
	tc      sqTraceCtx // trace context of the accumulating batch

	// spare is the buffer the last drain emptied; the next drain swaps it
	// back in, so steady-state commits do not allocate. Guarded by the
	// policy lock, not mu.
	spare []Entry
}

// record appends an entry; when the wrapper's threshold is reached the
// caller attempts a commit following the same TryLock protocol.
func (q *sharedQueue) record(s *Session, e Entry) {
	w := s.w
	q.mu.Lock()
	q.entries = append(q.entries, e)
	if tid := s.trace.ID(); tid != 0 {
		q.tc = sqTraceCtx{id: tid, at: s.trace.Now(), sess: s.id}
	}
	n := len(q.entries)
	q.mu.Unlock()
	if n < w.cfg.BatchThreshold {
		return
	}
	s.prefetch(nil, page.InvalidPageID)
	if n >= w.cfg.QueueSize {
		w.lock.Lock()
		w.cc.forcedLocks.Add(1)
		w.events.Record(obs.EvForcedLock, uint64(n), 0)
	} else if w.lock.TryLock() {
		w.cc.tryCommits.Add(1)
		w.events.Record(obs.EvCommit, uint64(n), 0)
	} else {
		// Lock busy: keep accumulating.
		w.events.Record(obs.EvTryFail, uint64(n), 0)
		return
	}
	q.drainAndUnlock(s)
}

// drainAndUnlock drains the queue as one commit round and releases the
// policy lock, which the caller holds.
func (q *sharedQueue) drainAndUnlock(s *Session) {
	w := s.w
	n, tc := q.drain(w)
	w.lock.Unlock()
	if n == 0 {
		return // drained by another session while this one waited for the lock
	}
	w.emitSharedHandoff(tc, s)
	w.cc.commits.Add(1)
	w.batchSizes.Observe(n)
}

// drain applies everything queued and returns how much that was, with the
// batch's trace context. Callers must hold the policy lock.
func (q *sharedQueue) drain(w *Wrapper) (int, sqTraceCtx) {
	q.mu.Lock()
	batch, tc := q.entries, q.tc
	q.entries, q.tc = q.spare[:0], sqTraceCtx{}
	q.mu.Unlock()
	w.applyBatch(batch)
	q.spare = batch
	return len(batch), tc
}

// appendIDs appends the queued page ids to ids: the prefetch walk's view of
// a batch it cannot take out of the queue yet.
func (q *sharedQueue) appendIDs(ids []page.PageID) []page.PageID {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, e := range q.entries {
		ids = append(ids, e.ID)
	}
	return ids
}

// pending returns the current queue length.
func (q *sharedQueue) pending() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.entries)
}
