// Package buffer implements the DBMS buffer-pool manager of Section II of
// the BP-Wrapper paper: a fixed array of page frames, a hash table mapping
// page ids to frames with one lock per bucket (uncontended by design, as
// the paper argues), and a replacement policy reached through the
// BP-Wrapper core so that the policy's single global lock — the system's
// one true hot spot — can be relieved by batching and prefetching.
//
// The pool can additionally be hash-partitioned into shards (Config.Shards),
// each shard a self-contained pool slice with its own frames, page table,
// free list, dirty quarantine, and BP-Wrapper + policy instance. The paper
// rejects distributing the *replacement algorithm* because it fragments the
// algorithm's access history (Section V-A); sharding here does exactly
// that, deliberately, so experiment E14 can measure the trade: per-shard
// policy locks dissolve contention, per-shard ghost history costs hit
// ratio. Shards: 1 (the default) is the paper's configuration and is
// byte-for-byte the old monolithic pool. The shards and their policies are
// built once, in New, and a page routes to the same shard for the pool's
// whole life.
package buffer

import (
	"errors"
	"fmt"
	"sync"
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
	// Frames is the number of page slots in the pool, summed across all
	// shards. Required.
	Frames int

	// Shards is the number of hash partitions the pool is split into. Each
	// shard owns its own frames, page table, free list, quarantine, and —
	// critically — its own BP-Wrapper + policy instance, so the policy
	// lock and batching queues are per shard. Zero or one means the
	// classic single-shard pool. Must not exceed Frames.
	Shards int

	// PolicyFactory constructs the replacement algorithm: the pool calls it
	// once per shard, with that shard's frame count as the capacity — one
	// instance cannot be split, its history (ghost lists, recency stacks)
	// being a single structure. The pool owns the instances. Required.
	PolicyFactory replacer.Factory

	// Wrapper selects the BP-Wrapper techniques (batching, prefetching,
	// queue tuning), applied to every shard's wrapper. The Validate field
	// is overwritten by the pool with its BufferTag check.
	Wrapper core.Config

	// Device is the backing store, shared by all shards (pages are
	// partitioned by id, so shards never write the same page). Required.
	Device storage.Device

	// WrapShardDevice, when non-nil, builds a per-shard device stack over
	// the shared Device: each shard issues its I/O through
	// WrapShardDevice(shard, Device) instead of Device directly. This is
	// how per-shard layers (FaultDevice, ChecksumDevice, RetryDevice) are
	// attached so one shard's sick device fills only that shard's
	// quarantine and sheds only that shard's misses. Pool.Stats().Device
	// still reports the shared base device's counters.
	WrapShardDevice func(shard int, base storage.Device) storage.Device

	// QuarantineCap bounds the dirty-quarantine list that parks victims
	// whose eviction write-back failed (evictClaimed); a flush writes from
	// its pinned frame and parks nothing. Zero means 64. The cap is divided
	// across shards (rounded up, minimum one per shard). When a shard's
	// quarantine is full, eviction passes dirty pages over instead of
	// parking more, so memory stays bounded and no data is lost. The bound
	// is soft under concurrency: simultaneous evictions may briefly
	// overshoot it by the number of in-flight write-backs.
	QuarantineCap int

	// RecorderSize enables the per-shard flight recorder: each shard gets
	// its own lock-free ring of its most recent RecorderSize buffer-manager
	// transitions (quarantine parks/flushes, health changes,
	// background-writer panics), rounded up to a power of two; evictions
	// and sheds are counted in Stats, not recorded. Zero
	// disables recording entirely — the record sites then pay only a nil
	// check. Dumps are appended to Close errors and are available through
	// FlightDump and the /debug/events endpoint.
	RecorderSize int

	// Trace enables the request-tracing layer (DESIGN.md §14): per-request
	// trace IDs with phase-stamped spans (bucket probe, pin, lock wait,
	// combiner handoff, policy op, device I/O, quarantine park), head
	// sampling plus tail keep. The one tracer, and its two rings, are shared
	// by every shard; access it through Pool.Tracer for export.
	// The zero value disables tracing entirely — the access paths then pay
	// one branch.
	Trace reqtrace.Config
}

// Pool is the buffer-pool manager: a router over one or more shards, keyed
// by a PageID hash. All methods are safe for concurrent use; per-backend
// access records flow through Sessions obtained from NewSession.
type Pool struct {
	shards []*shard // built by New, never replaced
	device storage.Device

	// tracer is the pool-wide request tracer (nil when Config.Trace is
	// disabled): one head ring and one tail ring, shared across shards —
	// a span names its shard, no ring belongs to one.
	tracer *reqtrace.Tracer

	quarCap int

	// readOnlyMu serializes SetReadOnly, so that every shard ends up with
	// the same read-only floor.
	readOnlyMu sync.Mutex
}

// Session is a per-backend handle carrying one core.Session per shard
// (each shard has its own wrapper, and a batching queue belongs to exactly
// one wrapper). Sessions must not be shared between goroutines.
type Session struct {
	pool *Pool
	subs []*core.Session

	// trace is the session's request-trace context: one Active shared (by
	// pointer) with every per-shard core sub-session, so a request's pool-
	// level spans and its commit-path spans land in the same trace. The
	// zero value is inert until Init binds the pool tracer.
	trace reqtrace.Active

	// load and evict are the session's in-flight page ops, registered on a
	// bucket for the length of a miss and of a dirty victim's write-back: a
	// session misses on one page at a time and evicts one victim at a time,
	// so the two are reused from miss to miss and registering one
	// allocates nothing (see nextOp).
	load, evict *loadOp

	// stage holds per-shard hit counts not yet folded into the shard's
	// shared counters: the zero-lock hit path must not write a shared
	// cacheline per access, so hits accumulate here (session-local, no
	// contention) and fold in batches of hitFoldInterval, on any miss to
	// the shard, and on Flush. Pool.AccessStats is therefore exact only
	// after the sessions flush.
	stage []hitStage
}

// hitStage is one shard's staged hit counts within a Session.
type hitStage struct {
	hits int64 // hits not yet folded into shard counters
	fast int64 // of those, hits served with zero mutex acquisitions
}

// hitFoldInterval bounds how many hits a session stages per shard before
// folding them into the shard counters, so live Stats lag by at most this
// much per session.
const hitFoldInterval = 1024

// stageHit records one hit against shard idx in session-local memory.
func (s *Session) stageHit(idx int, fast bool) {
	st := &s.stage[idx]
	st.hits++
	if fast {
		st.fast++
	}
	if st.hits >= hitFoldInterval {
		s.foldHits(idx)
	}
}

// foldHits flushes the staged hit counts of shard idx into its shared
// counters.
func (s *Session) foldHits(idx int) {
	st := &s.stage[idx]
	if st.hits == 0 {
		return
	}
	sh := s.pool.shards[idx]
	sh.hits.Add(st.hits)
	sh.hp.fast.Add(st.fast)
	st.hits, st.fast = 0, 0
}

// Flush commits every shard queue's batched accesses to its policy and
// folds the session's staged hit counts into the shard counters.
func (s *Session) Flush() {
	for i, sub := range s.subs {
		s.foldHits(i)
		sub.Flush()
	}
}

// Pending reports the number of accesses batched across all shard queues.
func (s *Session) Pending() int {
	n := 0
	for _, sub := range s.subs {
		n += sub.Pending()
	}
	return n
}

// New constructs a Pool from cfg. It panics on structural misconfiguration
// (these are programming errors, not runtime conditions).
func New(cfg Config) *Pool {
	if cfg.Frames <= 0 {
		panic("buffer: Frames must be positive")
	}
	if cfg.Device == nil {
		panic("buffer: Device is required")
	}
	nshards := cfg.Shards
	if nshards <= 0 {
		nshards = 1
	}
	if nshards > cfg.Frames {
		panic(fmt.Sprintf("buffer: Shards %d exceeds Frames %d", nshards, cfg.Frames))
	}
	if cfg.PolicyFactory == nil {
		panic("buffer: PolicyFactory is required")
	}
	if cfg.QuarantineCap <= 0 {
		cfg.QuarantineCap = 64
	}

	shardQuar := max(1, (cfg.QuarantineCap+nshards-1)/nshards)
	wcfg := cfg.Wrapper
	p := &Pool{
		shards:  make([]*shard, nshards),
		device:  cfg.Device,
		tracer:  reqtrace.New(cfg.Trace),
		quarCap: cfg.QuarantineCap,
	}
	if wcfg.Tracer == nil {
		wcfg.Tracer = p.tracer
	}
	// The first Frames%nshards shards get one extra frame.
	for i := range p.shards {
		fn := cfg.Frames / nshards
		if i < cfg.Frames%nshards {
			fn++
		}
		dev := cfg.Device
		if cfg.WrapShardDevice != nil {
			if dev = cfg.WrapShardDevice(i, cfg.Device); dev == nil {
				panic("buffer: WrapShardDevice returned nil")
			}
		}
		// One ring per shard, so a dump names its shard. The rings hold
		// transitions only, so one shared ring would serve as well
		// (ROADMAP 16(b) folds them with the shards).
		sh := &shard{events: obs.NewRecorder(cfg.RecorderSize)}
		sh.init(fn, cfg.PolicyFactory(fn), wcfg, dev, shardQuar)
		p.shards[i] = sh
	}
	return p
}

// ShardOf reports which shard owns page id; useful for tests, chaos
// harnesses, and diagnostics that need to target one shard's traffic. The
// shard index comes from the HIGH bits of the mixed hash while bucket
// selection inside the shard uses the low bits, so the two partitionings
// stay independent (with correlated bits, a shard's buckets would collapse
// to 1/nshards utilization). A single-shard pool skips the hash entirely.
func (p *Pool) ShardOf(id page.PageID) int {
	if len(p.shards) == 1 {
		return 0
	}
	return int((mix64(uint64(id)) >> 32) % uint64(len(p.shards)))
}

// shardFor returns the shard owning id.
func (p *Pool) shardFor(id page.PageID) *shard { return p.shards[p.ShardOf(id)] }

// NewSession returns a per-backend access session spanning all shards.
// Sessions must not be shared between goroutines.
func (p *Pool) NewSession() *Session {
	s := &Session{pool: p, subs: make([]*core.Session, len(p.shards)), stage: make([]hitStage, len(p.shards))}
	s.trace.Init(p.tracer)
	for i, sh := range p.shards {
		s.subs[i] = sh.wrapper.NewSession()
		s.subs[i].SetTrace(&s.trace)
	}
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

// SetReadOnly pins (or releases) every shard at the ReadOnly floor of the
// health ladder, independent of quarantine state. While set, misses are
// shed with ErrOverloaded but resident pages keep serving —
// including writes to them, which the quarantine protocol still evicts
// losslessly. It is the graceful-drain hook for network front-ends: lower
// the floor, let in-flight clients finish against resident pages, then
// CloseWithin flushes what is dirty. Unlike the health machinery it also
// applies where the health ladder is switched off — it is an operator
// action, not a health verdict. Releasing returns shards to their
// evaluated state.
func (p *Pool) SetReadOnly(on bool) {
	p.readOnlyMu.Lock()
	defer p.readOnlyMu.Unlock()
	for _, sh := range p.shards {
		sh.forced.Store(on)
		sh.evalHealth()
	}
}

// Wrapper exposes the BP-Wrapper core of shard 0. It is a diagnostic
// accessor for single-shard pools (where shard 0 IS the pool); with
// Shards > 1 read Stats().Wrapper for the sum over every shard.
func (p *Pool) Wrapper() *core.Wrapper { return p.shards[0].wrapper }

// AccessStats returns the pool's hit/miss counters summed over all shards,
// taking no lock. Within a shard hits are read before misses, and an access increments exactly one
// of them, so the derived ratio never sees a torn pair. Both only grow: a
// window is the difference of two snapshots. Sessions stage hits locally
// and fold them in batches (see Session), so the figures are exact only
// once the sessions have called Flush; mid-run they can lag by up to
// hitFoldInterval hits per live session.
func (p *Pool) AccessStats() metrics.AccessSnapshot {
	var a metrics.AccessSnapshot
	for _, sh := range p.shards {
		a = a.Plus(metrics.AccessSnapshot{Hits: sh.hits.Load(), Misses: sh.misses.Load()})
	}
	return a
}

// Device returns the backing device.
func (p *Pool) Device() storage.Device { return p.device }

// Get pins page id for reading, loading it from the device on a miss. The
// access is recorded through the session per the BP-Wrapper protocol,
// against the wrapper of the shard that owns the page.
func (p *Pool) Get(s *Session, id page.PageID) (*PageRef, error) {
	return p.access(s, id, false)
}

// GetWrite pins page id for writing: the returned reference holds the
// content lock exclusively and permits MarkDirty.
func (p *Pool) GetWrite(s *Session, id page.PageID) (*PageRef, error) {
	return p.access(s, id, true)
}

// access routes one page access to the shard that owns the page.
func (p *Pool) access(s *Session, id page.PageID, writable bool) (*PageRef, error) {
	if !id.Valid() {
		return nil, storage.ErrInvalidPage
	}
	s.trace.Begin()
	idx := p.ShardOf(id)
	ref, err := p.shards[idx].get(s, idx, id, writable)
	s.trace.End(uint64(id), err)
	return ref, err
}

// Invalidate drops page id from the pool (e.g. its table was truncated),
// discarding dirty contents — including any quarantined copy from an
// earlier failed write-back, which must not be drained back to the device
// later. It fails with ErrNoUnpinnedBuffers if the page is pinned.
func (p *Pool) Invalidate(id page.PageID) error { return p.shardFor(id).invalidate(id) }

// quarantineLen reports the number of pages currently parked in the dirty
// quarantines of all shards.
func (p *Pool) quarantineLen() int {
	n := 0
	for _, sh := range p.shards {
		n += sh.quarantineLen()
	}
	return n
}

// dirtyCount reports the number of dirty resident pages across all shards
// right now; the figure is advisory under concurrency.
func (p *Pool) dirtyCount() int {
	n := 0
	for _, sh := range p.shards {
		n += sh.dirtyCount()
	}
	return n
}

// drainQuarantine retries the write-back of every quarantined page across
// all shards; see shard.drainQuarantine for the per-shard semantics.
func (p *Pool) drainQuarantine() (written, failed int, err error) {
	var errs []error
	for _, sh := range p.shards {
		w, f, e := sh.drainQuarantine()
		written += w
		failed += f
		if e != nil {
			errs = append(errs, e)
		}
	}
	return written, failed, errors.Join(errs...)
}

// FlushDirty writes every dirty, unpinned page back to the device — and
// retries every quarantined page — returning the number made durable.
// Pinned dirty pages are skipped. Each page is written from its frame
// under a pin, so for the length of that one device write a GetWrite of
// the page waits and an Invalidate of it fails with ErrNoUnpinnedBuffers;
// readers and other pages are unaffected. A write failure does not abort
// the sweep: the page stays dirty (or quarantined), the remaining pages and
// shards are still flushed, and the failures are returned joined so the
// caller sees every page that is not yet durable.
func (p *Pool) FlushDirty() (int, error) {
	n := 0
	var errs []error
	for _, sh := range p.shards {
		sn, err := sh.flushDirty()
		n += sn
		if err != nil {
			errs = append(errs, err)
		}
	}
	return n, errors.Join(errs...)
}

// Close flushes the pool for shutdown: dirty and quarantined pages of
// every shard are written back with bounded retries and exponential
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

// ShardStats is everything one shard reports. Folded by add it is also what
// the whole pool reports: Stats sums these snapshots and reads no shard
// counter of its own.
type ShardStats struct {
	Frames            int   // page slots owned by this shard
	Free              int   // slots on the shard's free list
	Dirty             int   // dirty resident pages
	Resident          int   // pages tracked by the shard's policy, loads in flight included
	Quarantined       int   // evicted pages parked by a failed write-back
	Hits              int64 // buffer hits since the shard was built
	Misses            int64 // buffer misses since the shard was built
	WriteBackFailures int64 // failed write-back attempts (eviction, flush and quarantine-drain retries)
	EvictWritebacks   int64 // dirty victims written to the device straight from their frame

	// MissWaitsLoad and MissWaitsEvict count waits on a page somebody
	// else had in flight — by a miss or an Invalidate —
	// split by what was in flight: another miss's device read, or an
	// eviction still writing the page's dirty bytes out (in which case
	// the waiter then finds them on the device, or parked).
	MissWaitsLoad  int64
	MissWaitsEvict int64

	// Policy is the replacement algorithm installed in this shard's
	// wrapper.
	Policy string

	// Wrapper is the shard's BP-Wrapper statistics: policy-lock
	// acquisitions and contentions, commits and batches.
	Wrapper core.Stats

	// Hit-path anatomy (see DESIGN.md §12): how resident lookups were
	// served. HitpathFast counts hits that touched no mutex at all;
	// HitpathRetries counts torn optimistic probes that retried;
	// HitpathFallbacks counts lookups that gave up on the seqlock and took
	// the bucket mutex. BucketLockAcqs and FrameLockAcqs count every
	// bucket-mutex / frame-wmu acquisition on the access paths — the E17
	// acceptance figure ("≈ 0 bucket/frame lock acquisitions under a 100%
	// resident read workload") reads straight off them.
	HitpathFast      int64
	HitpathRetries   int64
	HitpathFallbacks int64
	BucketLockAcqs   int64
	FrameLockAcqs    int64

	Health             HealthState // degradation state at snapshot time
	HealthTransitions  int64       // health state changes
	MissInflight       int64       // admitted misses in flight at snapshot time
	Shed               int64       // misses refused with ErrOverloaded
	QuarantineRefusals int64       // dirty victims an eviction passed over because the quarantine was full
}

// add folds another snapshot into this one: the one fold behind the pool
// total. Counters and
// gauges sum and Health takes the worst; Policy describes one shard and
// is not folded.
func (ss *ShardStats) add(o ShardStats) {
	ss.Frames += o.Frames
	ss.Free += o.Free
	ss.Dirty += o.Dirty
	ss.Resident += o.Resident
	ss.Quarantined += o.Quarantined
	ss.Hits += o.Hits
	ss.Misses += o.Misses
	ss.WriteBackFailures += o.WriteBackFailures
	ss.EvictWritebacks += o.EvictWritebacks
	ss.MissWaitsLoad += o.MissWaitsLoad
	ss.MissWaitsEvict += o.MissWaitsEvict
	ss.Wrapper = ss.Wrapper.Plus(o.Wrapper)
	ss.HitpathFast += o.HitpathFast
	ss.HitpathRetries += o.HitpathRetries
	ss.HitpathFallbacks += o.HitpathFallbacks
	ss.BucketLockAcqs += o.BucketLockAcqs
	ss.FrameLockAcqs += o.FrameLockAcqs
	if o.Health > ss.Health {
		ss.Health = o.Health
	}
	ss.HealthTransitions += o.HealthTransitions
	ss.MissInflight += o.MissInflight
	ss.Shed += o.Shed
	ss.QuarantineRefusals += o.QuarantineRefusals
}

// Stats is a point-in-time operational snapshot of the pool.
//
// Snapshot semantics are relaxed: each counter group is read atomically
// and consistently (per shard, hits before misses, so hits+misses never
// exceed the accesses they imply), but distinct groups — access counters,
// dirty counts, wrapper stats, device stats — are collected one after
// another while workers may still be running, so cross-group comparisons
// (e.g. Misses vs Device.Reads) can be off by in-flight operations.
// Collect at quiescence for exact figures.
type Stats struct {
	// ShardStats is the sum of PerShard. Quarantined is bounded by
	// QuarantineCap, the configured pool-wide cap.
	ShardStats

	Shards        int     // number of hash partitions
	HitRatio      float64 // hits / (hits + misses), from the summed pair
	QuarantineCap int

	PerShard []ShardStats // by shard index
	Device   storage.DeviceStats
}

// shardStatsOf snapshots one shard. Its hits are read before its misses
// (a literal's calls run left to right), and its health is evaluated
// before its transitions are counted.
func shardStatsOf(sh *shard) ShardStats {
	ss := ShardStats{
		Frames:             len(sh.frames),
		Dirty:              sh.dirtyCount(),
		Quarantined:        sh.quarantineLen(),
		Hits:               sh.hits.Load(),
		Misses:             sh.misses.Load(),
		WriteBackFailures:  sh.writeBackFailures.Load(),
		EvictWritebacks:    sh.evictWritebacks.Load(),
		MissWaitsLoad:      sh.loadWaits.Load(),
		MissWaitsEvict:     sh.evictWaits.Load(),
		Wrapper:            sh.wrapper.Stats(),
		HitpathFast:        sh.hp.fast.Load(),
		HitpathRetries:     sh.hp.retries.Load(),
		HitpathFallbacks:   sh.hp.fallbacks.Load(),
		BucketLockAcqs:     sh.hp.bucketLocks.Load(),
		FrameLockAcqs:      sh.hp.frameLocks.Load(),
		Health:             sh.evalHealth(),
		HealthTransitions:  sh.healthTransitions.Load(),
		MissInflight:       sh.missInflight.Load(),
		Shed:               sh.shed.Load(),
		QuarantineRefusals: sh.quarRefusals.Load(),
	}
	sh.freeMu.Lock()
	ss.Free = len(sh.freeList)
	sh.freeMu.Unlock()
	sh.wrapper.Locked(func(pol replacer.Policy) {
		ss.Resident = pol.Len()
		ss.Policy = pol.Name()
	})
	return ss
}

// Stats returns an operational snapshot: the pool's one read path for its
// counters, which /metrics renders too. It takes each shard's policy lock
// briefly (for the resident count) and scans each frame's state word (for
// the dirty count); intended for monitoring, not hot paths.
func (p *Pool) Stats() Stats {
	s := Stats{Shards: len(p.shards), QuarantineCap: p.quarCap, Device: p.device.Stats()}
	s.PerShard = make([]ShardStats, len(p.shards))
	for i, sh := range p.shards {
		s.PerShard[i] = shardStatsOf(sh)
		s.ShardStats.add(s.PerShard[i])
	}
	s.HitRatio = metrics.AccessSnapshot{Hits: s.Hits, Misses: s.Misses}.HitRatio()
	return s
}

// PinnedFrames reports the number of frames currently holding at least one
// pin; used by tests and diagnostics (at a true quiescent point — no
// outstanding PageRefs, no in-flight operations — it must be zero).
func (p *Pool) PinnedFrames() int {
	n := 0
	for _, sh := range p.shards {
		n += sh.pinnedFrames()
	}
	return n
}

// CheckInvariants verifies the pool's structural invariants shard by
// shard: pin-count sanity, frame/hash-table consistency, free-list
// integrity, a page resident or quarantined but never both, policy/table
// agreement, and — across shards — that every resident or quarantined
// page lives in the shard its hash routes to. It is O(frames + buckets) and
// takes each lock briefly.
//
// The contract is quiescence: callers must ensure no pool operations are in
// flight (the torture harness calls it after workers join and again after
// Close). Called concurrently it cannot
// corrupt anything, but it may report perfectly legal in-flight
// transitions — a claimed frame between table removal and the free list —
// as violations.
func (p *Pool) CheckInvariants() error {
	for i, sh := range p.shards {
		owns := func(id page.PageID) bool { return p.ShardOf(id) == i }
		if err := sh.checkInvariants(owns); err != nil {
			return fmt.Errorf("shard %d/%d: %w", i, len(p.shards), err)
		}
	}
	return nil
}
