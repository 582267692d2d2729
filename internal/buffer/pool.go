// Package buffer implements the DBMS buffer-pool manager of Section II of
// the BP-Wrapper paper: a fixed array of page frames, a hash table mapping
// page ids to frames with one lock per bucket (uncontended by design, as
// the paper argues), and a replacement policy reached through the
// BP-Wrapper core so that the policy's single global lock — the system's
// one true hot spot — can be relieved by batching and prefetching.
//
// The pool is one partition, as the paper argues (Section V-A): one page
// table, one policy behind one lock, one quarantine and one health ladder.
// Splitting the pool under per-partition locks fragments the replacement
// algorithm's history; BP-Wrapper's answer is one lock made cheap by
// batching. internal/sim's Partitioned model keeps the comparison (E10).
package buffer

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bpwrapper/internal/core"
	"bpwrapper/internal/metrics"
	"bpwrapper/internal/obs"
	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/reqtrace"
	"bpwrapper/internal/storage"
)

// ErrNoUnpinnedBuffers is returned when every candidate victim is pinned,
// matching PostgreSQL's "no unpinned buffers available" condition.
var ErrNoUnpinnedBuffers = errors.New("buffer: no unpinned buffers available")

// Config assembles a Pool.
type Config struct {
	// Frames is the number of page slots in the pool. Required.
	Frames int

	// Shards must be 0 or 1: the pool is one partition. New panics on any
	// other value. The field stays only because the frozen benchmark sets
	// it (ROADMAP 16).
	Shards int

	// PolicyFactory constructs the replacement algorithm: the pool calls it
	// once, with Frames as the capacity, and owns the instance. Required.
	PolicyFactory replacer.Factory

	// Wrapper selects the BP-Wrapper techniques (batching, prefetching,
	// queue tuning). The pool overwrites its Validate field with its
	// BufferTag check and its Tracer field with the pool's tracer.
	Wrapper core.Config

	// Device is the backing store. Required.
	Device storage.Device

	// QuarantineCap bounds the dirty-quarantine list that parks victims
	// whose eviction write-back failed (evictClaimed); a flush writes from
	// its pinned frame and parks nothing. Zero means 64. When the
	// quarantine is full, eviction passes dirty pages over instead of
	// parking more, so memory stays bounded and no data is lost. The bound
	// is soft under concurrency: simultaneous evictions may briefly
	// overshoot it by the number of in-flight write-backs.
	QuarantineCap int

	// RecorderSize enables the flight recorder: a lock-free ring of the
	// pool's most recent RecorderSize buffer-manager transitions
	// (quarantine parks/flushes, health changes, background-writer panics),
	// rounded up to a power of two; evictions and sheds are counted in
	// Stats, not recorded. Zero disables recording entirely — the record
	// sites then pay only a nil check. Dumps are appended to Close errors
	// and are available through FlightDump and the /debug/events endpoint.
	RecorderSize int

	// Trace enables the request-tracing layer (DESIGN.md §14): per-request
	// trace IDs with phase-stamped spans (bucket probe, pin, lock wait,
	// combiner handoff, policy op, device I/O, quarantine park), head
	// sampling plus tail keep; access the tracer through Pool.Tracer for
	// export. The zero value disables tracing entirely — the access paths
	// then pay one branch.
	Trace reqtrace.Config
}

// Pool is the buffer-pool manager: the frames, the page table, the free
// list, the dirty quarantine, the write-back stripes, and the core.Wrapper
// around the one replacement-policy instance — the paper's single hot spot,
// relieved by batching rather than split (Section V-A). All methods are safe
// for concurrent use; per-backend access records flow through Sessions
// obtained from NewSession.
//
// Since the lock-free hit-path rewrite (DESIGN.md §12), a resident-page
// read acquires no mutex at all: the table lookup is a seqlock-validated
// probe of one bucket's open-addressed slots — one cache line — and the pin
// is one CAS on the frame's packed state word. The bucket mutex is
// writer-only (miss install, eviction, invalidation) and lives, with the
// rest of what only writers need, in bucketWs; the per-frame wmu is taken
// only by GetWrite.
type Pool struct {
	frames   []Frame
	buckets  []bucket  // reader lines, bucketsPerFrame per frame
	bucketWs []bucketW // writer side of buckets[i]
	wrapper  *core.Wrapper
	policy   string // the policy's Name, fixed at New
	device   storage.Device

	freeMu   sync.Mutex
	freeList []*Frame

	// nextToClean is the frame index at which the background writer's next
	// sweep starts (BackgroundWriter.round); atomic because
	// nothing stops a pool from having two writers.
	nextToClean atomic.Int64

	// quarantine parks copies of dirty pages that no longer have a frame:
	// an eviction writes out of the claimed frame, behind an in-flight op
	// (evictClaimed), and parks the bytes only when that write fails. Entries
	// linger while the device refuses them, so an acknowledged write is
	// never dropped; loads adopt a quarantined copy instead of reading a
	// stale version from the device.
	quarMu     sync.Mutex
	quarantine map[page.PageID]*page.Page
	quarCap    int

	// quarN mirrors len(quarantine), stored by whoever changed the map
	// before it releases quarMu (quarUnlock), so a path that only asks
	// whether, or how much, is parked takes no pool-wide lock — a miss on
	// a healthy pool above all (quarantineTake).
	quarN atomic.Int32

	// quarTrace remembers, per parked page, which traced request did the
	// parking (DESIGN.md §14): when the background writer or a flush sweep
	// later makes the copy durable, the park-to-durable interval is emitted
	// as a cross-thread span on that request's trace. Best-effort — entries
	// exist only for traced parkers and follow the quarantine entry's
	// lifecycle (adopted, superseded, and purged entries drop theirs).
	// Guarded by quarMu.
	quarTrace map[page.PageID]quarCtx

	// wbLocks serializes device write-backs per page (striped by page id,
	// held across the WritePage call in writeFrame and writeQuarantined).
	// Without it, a slow in-flight write of an old copy could land *after* a
	// newer copy of the same page was written and resolved, silently
	// reverting the device.
	wbLocks [wbStripes]sync.Mutex

	// tracer is the pool's request tracer (nil when Config.Trace is
	// disabled), the wrapper's too. The pool uses it directly only for
	// cross-thread emits — request-scoped spans go through the session's
	// Active.
	tracer *reqtrace.Tracer

	writeBackFailures atomic.Int64
	evictWritebacks   atomic.Int64 // dirty victims written straight from their frame
	loadWaits         atomic.Int64 // waits on another goroutine's in-flight load (awaitOp)
	evictWaits        atomic.Int64 // waits on an in-flight eviction write-back

	// claim is claimVictim, built once so that a miss hands it to the
	// policy (core.Session.MissSlot) without allocating.
	claim func(replacer.Victim) bool

	// healthState drives graceful degradation: quarantine-driven
	// health evaluation and miss admission control (see health.go).
	healthState

	hits   atomic.Int64 // folded in from per-session staging (see Session.stageHit)
	misses atomic.Int64

	// hp counts hit-path outcomes: fast (zero-lock) hits, torn-read
	// retries, locked fallbacks, and every bucket/frame mutex acquisition
	// on the access paths — the numbers E17 and the bpw_hitpath_* series
	// are built from.
	hp hitpathCounters

	// events is the pool's flight recorder (nil when disabled): its
	// quarantine parks and flushes, health changes and background-writer
	// panics, in one history.
	events *obs.Recorder
}

// Session is a per-backend handle carrying the backend's core.Session (its
// batching queue). Sessions must not be shared between goroutines.
type Session struct {
	pool *Pool
	sub  *core.Session

	// trace is the session's request-trace context, shared (by pointer)
	// with the core session, so a request's pool-level spans and its
	// commit-path spans land in the same trace. The zero value is inert
	// until Init binds the pool tracer.
	trace reqtrace.Active

	// load and evict are the session's in-flight page ops, registered on a
	// bucket for the length of a miss and of a dirty victim's write-back: a
	// session misses on one page at a time and evicts one victim at a time,
	// so the two are reused from miss to miss and registering one
	// allocates nothing (see nextOp).
	load, evict *loadOp

	// staged and stagedFast are hits not yet folded into the pool's
	// shared counters, and how many of them were served with zero mutex
	// acquisitions: the zero-lock hit path must not write a shared
	// cacheline per access, so hits accumulate here (session-local, no
	// contention) and fold in batches of hitFoldInterval, on any miss, and
	// on Flush. Pool.AccessStats is therefore exact only after the
	// sessions flush.
	staged, stagedFast int64
}

// hitFoldInterval bounds how many hits a session stages before folding
// them into the pool counters, so live Stats lag by at most this much per
// session.
const hitFoldInterval = 1024

// stageHit records one hit in session-local memory.
func (s *Session) stageHit(fast bool) {
	s.staged++
	if fast {
		s.stagedFast++
	}
	if s.staged >= hitFoldInterval {
		s.foldHits()
	}
}

// foldHits flushes the staged hit counts into the pool counters.
func (s *Session) foldHits() {
	if s.staged == 0 {
		return
	}
	s.pool.hits.Add(s.staged)
	s.pool.hp.fast.Add(s.stagedFast)
	s.staged, s.stagedFast = 0, 0
}

// Flush commits the session queue's batched accesses to the policy and
// folds the session's staged hit counts into the pool counters.
func (s *Session) Flush() {
	s.foldHits()
	s.sub.Flush()
}

// Pending reports the number of accesses batched in the session queue.
func (s *Session) Pending() int { return s.sub.Pending() }

// New constructs a Pool from cfg. It panics on structural misconfiguration
// (these are programming errors, not runtime conditions).
func New(cfg Config) *Pool {
	if cfg.Frames <= 0 {
		panic("buffer: Frames must be positive")
	}
	if cfg.Device == nil {
		panic("buffer: Device is required")
	}
	if cfg.Shards > 1 || cfg.Shards < 0 {
		panic(fmt.Sprintf("buffer: Shards %d: the pool is one partition, so Shards must be 0 or 1 (ROADMAP 16)", cfg.Shards))
	}
	if cfg.PolicyFactory == nil {
		panic("buffer: PolicyFactory is required")
	}
	if cfg.QuarantineCap <= 0 {
		cfg.QuarantineCap = 64
	}

	pol := cfg.PolicyFactory(cfg.Frames)
	if pol.Cap() < cfg.Frames {
		panic(fmt.Sprintf("buffer: policy capacity %d below frame count %d", pol.Cap(), cfg.Frames))
	}

	nb := tableBuckets(cfg.Frames)
	p := &Pool{
		frames:     make([]Frame, cfg.Frames),
		buckets:    make([]bucket, nb),
		bucketWs:   make([]bucketW, nb),
		device:     cfg.Device,
		freeList:   make([]*Frame, cfg.Frames),
		quarantine: make(map[page.PageID]*page.Page),
		quarTrace:  make(map[page.PageID]quarCtx),
		quarCap:    cfg.QuarantineCap,
		tracer:     reqtrace.New(cfg.Trace),
		events:     obs.NewRecorder(cfg.RecorderSize),
	}
	for i := range p.frames {
		p.frames[i].slot = uint32(i)
		p.frames[i].initFree()
		p.freeList[i] = &p.frames[i]
	}
	p.claim = p.claimVictim
	wcfg := cfg.Wrapper
	wcfg.Validate = p.validTags
	wcfg.Tracer = p.tracer
	// Slotted: every tag the pool issues names its frame's slot, which
	// addresses the policy's metadata for the page as well as the frame.
	p.wrapper = core.NewSlotted(pol, wcfg)
	p.policy = pol.Name()
	return p
}

// NewSession returns a per-backend access session. Sessions must not be
// shared between goroutines.
func (p *Pool) NewSession() *Session {
	s := &Session{pool: p, sub: p.wrapper.NewSession()}
	s.trace.Init(p.tracer)
	s.sub.SetTrace(&s.trace)
	return s
}

// SetNextTrace adopts a caller-supplied trace ID (e.g. propagated over the
// wire) for the session's NEXT access: that request is traced regardless of
// head sampling and its spans carry the given ID, stitching the client's
// trace to the server-side pool work. A zero id is ignored.
func (s *Session) SetNextTrace(id uint64) { s.trace.SetNext(id) }

// TraceID reports the trace ID of the session's in-flight request, or zero
// when the current request is untraced. Valid between an access's start and
// its return; callers wanting exemplars must read it before the next access.
func (s *Session) TraceID() uint64 { return s.trace.ID() }

// Tracer exposes the pool's request tracer for export endpoints and tests;
// nil when Config.Trace left tracing disabled.
func (p *Pool) Tracer() *reqtrace.Tracer { return p.tracer }

// SetReadOnly pins (or releases) the pool at the ReadOnly floor of the
// health ladder, independent of quarantine state. While set, misses are
// shed with ErrOverloaded but resident pages keep serving —
// including writes to them, which the quarantine protocol still evicts
// losslessly. It is the graceful-drain hook for network front-ends: lower
// the floor, let in-flight clients finish against resident pages, then
// CloseWithin flushes what is dirty. Unlike the health machinery it also
// applies where the health ladder is switched off — it is an operator
// action, not a health verdict. Releasing returns the pool to its
// evaluated state.
func (p *Pool) SetReadOnly(on bool) {
	p.forced.Store(on)
	p.evalHealth()
}

// Wrapper exposes the pool's BP-Wrapper core, a diagnostic accessor; its
// statistics are also in Stats().Wrapper.
func (p *Pool) Wrapper() *core.Wrapper { return p.wrapper }

// AccessStats returns the pool's hit/miss counters, taking no lock. Hits
// are read before misses, and an access increments exactly one of them, so
// the derived ratio never sees a torn pair. Both only grow: a window is the
// difference of two snapshots. Sessions stage hits locally and fold them in
// batches (see Session), so the figures are exact only once the sessions
// have called Flush; mid-run they can lag by up to hitFoldInterval hits per
// live session.
func (p *Pool) AccessStats() metrics.AccessSnapshot {
	return metrics.AccessSnapshot{Hits: p.hits.Load(), Misses: p.misses.Load()}
}

// Device returns the backing device.
func (p *Pool) Device() storage.Device { return p.device }

// Get pins page id for reading, loading it from the device on a miss. The
// access is recorded through the session per the BP-Wrapper protocol.
func (p *Pool) Get(s *Session, id page.PageID) (*PageRef, error) {
	return p.access(s, id, false)
}

// GetWrite pins page id for writing: the returned reference holds the
// content lock exclusively and permits MarkDirty.
func (p *Pool) GetWrite(s *Session, id page.PageID) (*PageRef, error) {
	return p.access(s, id, true)
}

// access serves one page access inside the session's request trace.
func (p *Pool) access(s *Session, id page.PageID, writable bool) (*PageRef, error) {
	if !id.Valid() {
		return nil, storage.ErrInvalidPage
	}
	s.trace.Begin()
	ref, err := p.get(s, id, writable)
	s.trace.End(uint64(id), err)
	return ref, err
}

// Close flushes the pool for shutdown: dirty and quarantined pages are
// written back with bounded retries and exponential
// backoff, so transient device trouble at shutdown does not lose data. It
// returns an error if pages remain non-durable (still failing, or pinned
// dirty) after the retry budget: the full 8-attempt exponential ladder,
// ~130ms of sleeps plus flush time (CloseWithin bounds it instead).
// Close does not stop a BackgroundWriter — the caller owns that — and the
// pool remains usable afterwards.
func (p *Pool) Close() error {
	return p.CloseWithin(0)
}

// CloseWithin is Close with an explicit time budget: the flush-retry
// ladder gives up as soon as the budget is exhausted instead of sleeping
// out its remaining backoffs. A zero budget means unbounded (the full
// ladder). The budget bounds the backoff sleeps between attempts, not
// the attempts: each FlushDirty waits on its device writes, so a device
// that hangs blocks FlushDirty, and CloseWithin with it, until the write
// returns. Giving up never loses data: unflushed pages stay dirty in
// their frames or parked in the quarantine, and a later Close can retry.
func (p *Pool) CloseWithin(budget time.Duration) error {
	const attempts = 8
	var deadline time.Time
	if budget > 0 {
		deadline = time.Now().Add(budget)
	}
	backoff := time.Millisecond
	var lastErr error
	for i := 0; i < attempts; i++ {
		_, err := p.FlushDirty()
		lastErr = err
		if err == nil && p.quarantineLen() == 0 {
			if d := p.dirtyCount(); d > 0 {
				lastErr = fmt.Errorf("buffer: %d dirty pages still pinned", d)
			} else {
				return nil
			}
		}
		if i < attempts-1 {
			sleep := backoff
			if !deadline.IsZero() {
				remaining := time.Until(deadline)
				if remaining <= 0 {
					lastErr = fmt.Errorf("buffer: close budget %v exhausted after %d attempts: %w", budget, i+1, lastErr)
					break
				}
				if sleep > remaining {
					sleep = remaining
				}
			}
			time.Sleep(sleep)
			backoff *= 2
		}
	}
	err := fmt.Errorf("buffer: close did not reach a clean state: %w", lastErr)
	// A dirty shutdown is exactly the situation the flight recorder exists
	// for: attach the recent protocol history (evictions, parks, failed
	// flushes) so the error is diagnosable post mortem.
	if dump := p.FlightDump(); dump != "" {
		err = fmt.Errorf("%w\n%s", err, dump)
	}
	return err
}

// Prewarm loads the given pages through a throwaway session so that a
// subsequent measured run starts with the working set resident, as the
// scalability experiments require ("we pre-warm the buffer", Section IV).
func (p *Pool) Prewarm(ids []page.PageID) error {
	s := p.NewSession()
	for _, id := range ids {
		ref, err := p.Get(s, id)
		if err != nil {
			return err
		}
		ref.Release()
	}
	s.Flush()
	return nil
}

// Stats is a point-in-time operational snapshot of the pool.
//
// Snapshot semantics are relaxed: each counter group is read atomically
// and consistently (hits before misses, so hits+misses never exceed the
// accesses they imply), but distinct groups — access counters, dirty
// counts, wrapper stats, device stats — are collected one after another
// while workers may still be running, so cross-group comparisons (e.g.
// Misses vs Device.Reads) can be off by in-flight operations. Collect at
// quiescence for exact figures.
type Stats struct {
	Frames            int     // page slots
	Free              int     // slots on the free list
	Dirty             int     // dirty resident pages
	Quarantined       int     // evicted pages parked by a failed write-back, bounded by QuarantineCap
	QuarantineCap     int     // the configured quarantine cap
	Hits              int64   // buffer hits since the pool was built
	Misses            int64   // buffer misses since the pool was built
	HitRatio          float64 // Hits / (Hits + Misses)
	WriteBackFailures int64   // failed write-back attempts (eviction, flush and quarantine-drain retries)
	EvictWritebacks   int64   // dirty victims written to the device straight from their frame

	// MissWaitsLoad and MissWaitsEvict count waits on a page somebody
	// else had in flight — by a miss or an Invalidate —
	// split by what was in flight: another miss's device read, or an
	// eviction still writing the page's dirty bytes out (in which case
	// the waiter then finds them on the device, or parked).
	MissWaitsLoad  int64
	MissWaitsEvict int64

	// Policy is the replacement algorithm installed in the pool's wrapper.
	Policy string

	// Wrapper is the pool's BP-Wrapper statistics: policy-lock
	// acquisitions and contentions, commits and batches.
	Wrapper core.Stats

	// Hit-path anatomy (see DESIGN.md §12): how resident lookups were
	// served. HitpathFast counts hits that touched no mutex at all;
	// HitpathRetries counts torn optimistic probes that retried;
	// HitpathFallbacks counts lookups that took the bucket mutex instead:
	// once a torn probe's retries ran out, or at once for a page that may
	// sit in its bucket's overflow chain. BucketLockAcqs and FrameLockAcqs count every
	// bucket-mutex / frame-wmu acquisition on the access paths — the E17
	// acceptance figure ("≈ 0 bucket/frame lock acquisitions under a 100%
	// resident read workload") reads straight off them.
	HitpathFast      int64
	HitpathRetries   int64
	HitpathFallbacks int64
	BucketLockAcqs   int64
	FrameLockAcqs    int64

	Health             HealthState // degradation state at snapshot time
	Shed               int64       // misses refused with ErrOverloaded
	QuarantineRefusals int64       // dirty victims an eviction passed over because the quarantine was full

	Device storage.DeviceStats
}

// Stats returns an operational snapshot: the pool's one read path for its
// counters, which /metrics renders too. It takes no policy lock, so a
// scrape never queues behind a miss or adds to the paper's metric; it
// scans each frame's state word (for the dirty count) and takes the free
// list's mutex, so it is meant for monitoring, not hot paths. Hits are
// read before misses (a literal's calls run left to right).
func (p *Pool) Stats() Stats {
	s := Stats{
		Frames:             len(p.frames),
		Dirty:              p.dirtyCount(),
		Quarantined:        p.quarantineLen(),
		QuarantineCap:      p.quarCap,
		Hits:               p.hits.Load(),
		Misses:             p.misses.Load(),
		WriteBackFailures:  p.writeBackFailures.Load(),
		EvictWritebacks:    p.evictWritebacks.Load(),
		MissWaitsLoad:      p.loadWaits.Load(),
		MissWaitsEvict:     p.evictWaits.Load(),
		Wrapper:            p.wrapper.Stats(),
		HitpathFast:        p.hp.fast.Load(),
		HitpathRetries:     p.hp.retries.Load(),
		HitpathFallbacks:   p.hp.fallbacks.Load(),
		BucketLockAcqs:     p.hp.bucketLocks.Load(),
		FrameLockAcqs:      p.hp.frameLocks.Load(),
		Health:             p.evalHealth(),
		Shed:               p.shed.Load(),
		QuarantineRefusals: p.quarRefusals.Load(),
		Device:             p.device.Stats(),
		Policy:             p.policy,
	}
	p.freeMu.Lock()
	s.Free = len(p.freeList)
	p.freeMu.Unlock()
	s.HitRatio = metrics.AccessSnapshot{Hits: s.Hits, Misses: s.Misses}.HitRatio()
	return s
}
