// Package bpwrapper is a Go implementation of BP-Wrapper, the framework of
// Ding, Jiang & Zhang, "BP-Wrapper: A System Framework Making Any
// Replacement Algorithms (Almost) Lock Contention Free" (ICDE 2009),
// together with the complete substrate the paper's evaluation needs: eleven
// buffer replacement algorithms, a PostgreSQL-style buffer-pool manager, a
// simulated storage layer, TPC-W-like / TPC-C-like / TableScan workload
// generators, a transaction driver, a deterministic multiprocessor
// simulator, and the experiment harness that regenerates every table and
// figure of the paper.
//
// # The problem and the technique
//
// Advanced replacement algorithms (2Q, LIRS, MQ, ARC, ...) must update a
// shared data structure on every buffer access, under one global lock. At
// high concurrency that lock throttles the whole DBMS, which is why systems
// like PostgreSQL retreated to clock approximations that trade hit ratio
// for lock-free hits. BP-Wrapper removes the trade-off with two
// algorithm-agnostic techniques:
//
//   - Batching: each backend records hits in a small private FIFO queue and
//     commits them in one lock-holding period — opportunistically with
//     TryLock once a threshold is reached, forcibly only when the queue
//     fills.
//   - Prefetching: immediately before requesting the lock, the data the
//     critical section will touch is read lock-free, so the processor cache
//     is warm while the lock is held. A shorter holding time helps only
//     whoever is waiting for the lock, so with WrapperConfig.Prefetching a
//     session walks only after a request for the policy lock has found it
//     held (WrapperStats.PrefetchWalks counts the walks); uncontended, the
//     setting costs one comparison per commit.
//
// There is one way to commit a batch — one lock-holding period in the
// wrapper — and the configurations are schedulers over it that differ only
// in what a session does at the threshold when the lock is busy: block
// (no batching), keep recording until the queue is full (the paper), or,
// beyond the paper, WrapperConfig.FlatCombining: publish the batch in a
// per-session padded slot and try the lock once — the winner applies every
// session's published batch; losers swap to a spare buffer and keep
// recording without ever blocking. See examples/flatcombine and the bpbench
// combine experiment. The designs the paper rejects or that this
// repository only studies (one shared queue, Section III-A; a per-session
// self-tuning threshold) are models in the simulator (bpsim -shared-queue,
// -adaptive), not options of the wrapper.
//
// # Quick start
//
//	pool := bpwrapper.NewPool(bpwrapper.PoolConfig{
//		Frames:        1024,
//		PolicyFactory: bpwrapper.PolicyFactories()["2q"],
//		Wrapper:       bpwrapper.WrapperConfig{Batching: true, Prefetching: true},
//		Device:        bpwrapper.NewMemDevice(),
//	})
//	sess := pool.NewSession() // one per worker goroutine
//	ref, err := pool.Get(sess, bpwrapper.NewPageID(1, 0))
//	if err != nil { ... }
//	_ = ref.Data()
//	ref.Release()
//
// See the examples directory for complete programs and DESIGN.md /
// EXPERIMENTS.md for the reproduction methodology and results.
package bpwrapper

import (
	"bpwrapper/internal/buffer"
	"bpwrapper/internal/control"
	"bpwrapper/internal/core"
	"bpwrapper/internal/metrics"
	"bpwrapper/internal/obs"
	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/reqtrace"
	"bpwrapper/internal/server"
	"bpwrapper/internal/storage"
	"bpwrapper/internal/trace"
	"bpwrapper/internal/workload"
)

// ---------------------------------------------------------------------------
// Pages

// PageID identifies a disk page: a table (relation) number plus a block
// number within the table.
type PageID = page.PageID

// BufferTag identifies one cached copy of a page (page id + frame
// generation, plus the slot of the frame holding it); BP-Wrapper's deferred
// hit records carry it so stale records can be discarded at commit time.
type BufferTag = page.BufferTag

// Page is an 8 KB page image.
type Page = page.Page

// PageSize is the page size in bytes (8 KB, as in PostgreSQL).
const PageSize = page.Size

// NewPageID packs a table number (1..2^20-1) and block number (< 2^44)
// into a PageID.
func NewPageID(table uint32, block uint64) PageID { return page.NewPageID(table, block) }

// ---------------------------------------------------------------------------
// Replacement policies

// Policy is a buffer replacement algorithm. Implementations are not safe
// for concurrent use; they are driven either single-threaded (simulation),
// under one global lock (the pre-BP-Wrapper design), or through the
// Wrapper.
type Policy = replacer.Policy

// Prefetcher is implemented by policies that support the prefetching
// technique.
type Prefetcher = replacer.Prefetcher

// SlotPolicy is the optional slot-keyed face of a Policy: the buffer pool
// drives a policy that has it by frame slot, with no lookup under the lock,
// and one that has not by id. Every built-in policy implements it.
type SlotPolicy = replacer.SlotPolicy

// CheckPolicy holds a Policy to the contract the pool and the wrapper rely
// on (and to SlotPolicy's, if it implements it); call it from a test of any
// policy of your own with t and a factory.
func CheckPolicy(t replacer.TB, factory func(capacity int) Policy) {
	replacer.CheckPolicy(t, factory)
}

// NewPolicy constructs a replacement policy by name. Available names:
// "lru", "fifo", "lfu", "lru2", "clock", "gclock", "2q", "lirs", "mq",
// "arc", "car", "clockpro", "seq".
func NewPolicy(name string, capacity int) (Policy, bool) { return replacer.New(name, capacity) }

// PolicyNames lists the available algorithm names in sorted order.
func PolicyNames() []string { return replacer.Names() }

// Direct constructors for callers that want tuned parameters.
var (
	NewLRU      = replacer.NewLRU
	NewFIFO     = replacer.NewFIFO
	NewLFU      = replacer.NewLFU
	NewLRU2     = replacer.NewLRU2
	NewLRUK     = replacer.NewLRUK
	NewClock    = replacer.NewClock
	NewGClock   = replacer.NewGClock
	NewTwoQ     = replacer.NewTwoQ
	NewTwoQT    = replacer.NewTwoQTuned
	NewLIRS     = replacer.NewLIRS
	NewLIRST    = replacer.NewLIRSTuned
	NewMQ       = replacer.NewMQ
	NewMQT      = replacer.NewMQTuned
	NewARC      = replacer.NewARC
	NewCAR      = replacer.NewCAR
	NewClockPro = replacer.NewClockPro
)

// ---------------------------------------------------------------------------
// BP-Wrapper core

// Wrapper couples a replacement policy with its global lock and the
// BP-Wrapper techniques. Obtain per-backend Sessions with NewSession.
type Wrapper = core.Wrapper

// WrapperConfig selects batching/prefetching and tunes the FIFO queue.
type WrapperConfig = core.Config

// Session is one backend's private FIFO queue of deferred hit records,
// bound to a single Wrapper. Pool backends use PoolSession, which carries
// one of these per shard.
type Session = core.Session

// Entry is one queued access record.
type Entry = core.Entry

// WrapperStats snapshots a Wrapper's counters (lock statistics, batching
// activity).
type WrapperStats = core.Stats

// NewWrapper builds a standalone Wrapper around a policy. Most users want
// NewPool instead, which wires the wrapper into a buffer manager.
func NewWrapper(p Policy, cfg WrapperConfig) *Wrapper { return core.New(p, cfg) }

// Paper-default queue tuning.
const (
	DefaultQueueSize      = core.DefaultQueueSize
	DefaultBatchThreshold = core.DefaultBatchThreshold
)

// ---------------------------------------------------------------------------
// Buffer pool

// Pool is the buffer-pool manager: fixed frames, a bucketed page table, and
// a replacement policy reached through the BP-Wrapper core. With
// PoolConfig.Shards > 1 the pool is hash-partitioned into shards, each with
// its own frames, page table, quarantine, and BP-Wrapper + policy instance
// (per-shard policy lock and batching queues); Shards: 1 — the default —
// is the paper's single-policy configuration. Sharding trades the
// replacement algorithm's unified access history (the paper's Section V-A
// objection to distributed locks) for contention relief; the bpbench
// "shard" experiment (E14) measures what the split history costs.
type Pool = buffer.Pool

// PoolConfig assembles a Pool. PolicyFactory names the replacement
// algorithm; the pool builds one instance per shard, each sized to its
// shard, at construction and at every Reshard.
type PoolConfig = buffer.Config

// PoolSession is a per-backend handle for Pool.Get/GetWrite, carrying one
// batching Session per shard; obtain one per worker goroutine with
// Pool.NewSession and do not share it between goroutines.
type PoolSession = buffer.Session

// PolicyFactory constructs a replacement-policy instance of a given
// capacity; a pool calls it once per shard. PolicyFactories returns the
// named constructors; a tuned or custom policy is a closure,
// func(c int) bpwrapper.Policy { return bpwrapper.NewTwoQT(c, ...) }.
type PolicyFactory = replacer.Factory

// PolicyFactories returns the named policy constructors ("lru", "2q",
// "lirs", ...), each usable as a PoolConfig.PolicyFactory.
func PolicyFactories() map[string]PolicyFactory { return replacer.Factories() }

// PageRef is a pinned reference to a buffered page.
type PageRef = buffer.PageRef

// PoolStats is an operational snapshot of a Pool (see Pool.Stats). With a
// sharded pool the top-level counters are consistent aggregates over
// PerShard.
type PoolStats = buffer.Stats

// PoolShardStats is the per-shard slice of a PoolStats snapshot.
type PoolShardStats = buffer.ShardStats

// AccessSnapshot is a consistent hits/misses pair (see Pool.AccessStats).
type AccessSnapshot = metrics.AccessSnapshot

// BackgroundWriter periodically writes dirty pages back to the device and
// drains the pool's dirty quarantine, backing off when the device is down;
// start one with Pool.StartBackgroundWriter.
type BackgroundWriter = buffer.BackgroundWriter

// BackgroundWriterConfig tunes a BackgroundWriter.
type BackgroundWriterConfig = buffer.BackgroundWriterConfig

// BackgroundWriterStats snapshots a BackgroundWriter's activity (rounds,
// pages written, write failures, backoff rounds).
type BackgroundWriterStats = buffer.BackgroundWriterStats

// ErrNoUnpinnedBuffers is returned when every candidate victim is pinned.
var ErrNoUnpinnedBuffers = buffer.ErrNoUnpinnedBuffers

// NewPool builds a buffer pool.
func NewPool(cfg PoolConfig) *Pool { return buffer.New(cfg) }

// ---------------------------------------------------------------------------
// Self-tuning controller

// Controller closes the observation→actuation loop over a Pool: a
// background goroutine consumes the pool's sampled access stream and
// windowed stats deltas, and actuates replacement-policy hot-swap (scored
// by shadow ghost caches) and online resharding. See DESIGN.md §14 and the
// bpbench "tuner" experiment (E19).
type Controller = control.Controller

// ControllerConfig tunes a Controller; the zero value of every optional
// field picks the documented default. Pool is required.
type ControllerConfig = control.Config

// ControllerAction is one actuation taken by a controller step.
type ControllerAction = control.Action

// NewController builds a Controller over a pool. Call Start to run it on
// its interval ticker and Stop to halt it; Step may instead be driven
// manually for deterministic replay.
func NewController(cfg ControllerConfig) *Controller { return control.New(cfg) }

// ---------------------------------------------------------------------------
// Storage devices

// Device is the storage interface beneath the pool.
type Device = storage.Device

// DeviceStats counts device activity.
type DeviceStats = storage.DeviceStats

// SimDiskConfig tunes the latency-simulating disk.
type SimDiskConfig = storage.SimDiskConfig

// NewMemDevice returns an in-memory page store whose unwritten pages read
// back as a deterministic per-page pattern.
func NewMemDevice() *storage.MemDevice { return storage.NewMemDevice() }

// NewSimDisk wraps a device with per-operation latency and bounded
// parallelism.
func NewSimDisk(backing Device, cfg SimDiskConfig) *storage.SimDisk {
	return storage.NewSimDisk(backing, cfg)
}

// NewNullDevice returns a zero-latency device for fully cached runs.
func NewNullDevice() *storage.NullDevice { return storage.NewNullDevice() }

// ---------------------------------------------------------------------------
// Fault tolerance

// Error taxonomy of the fault-tolerance stack; classify device failures
// with errors.Is.
var (
	// ErrTransient marks failures worth retrying (a flaky bus, a
	// momentary controller error).
	ErrTransient = storage.ErrTransient

	// ErrPermanent marks failures retrying cannot fix (a dead sector).
	ErrPermanent = storage.ErrPermanent

	// ErrCorruptPage marks a page whose bytes do not match the checksum
	// recorded at write time (torn write, bit rot).
	ErrCorruptPage = storage.ErrCorruptPage

	// ErrInvalidPage marks an operation naming the invalid PageID — a
	// caller bug, not a device failure. The cache client maps the wire
	// INVALID_PAGE status back onto this same sentinel.
	ErrInvalidPage = storage.ErrInvalidPage
)

// RetryableError reports whether a device error is worth retrying:
// transient faults and checksum mismatches are, permanent errors are not.
func RetryableError(err error) bool { return storage.Retryable(err) }

// FaultDevice injects deterministic, seedable storage faults (transient or
// permanent errors, latency spikes, page corruption) for testing and the
// bpbench chaos experiment (E16).
type FaultDevice = storage.FaultDevice

// FaultConfig tunes a FaultDevice's probabilistic injection.
type FaultConfig = storage.FaultConfig

// RetryDevice retries retryable failures with bounded exponential backoff
// and jitter.
type RetryDevice = storage.RetryDevice

// RetryConfig tunes a RetryDevice.
type RetryConfig = storage.RetryConfig

// ChecksumDevice stamps a checksum on every write and verifies it on
// read, surfacing torn or corrupted pages as ErrCorruptPage.
type ChecksumDevice = storage.ChecksumDevice

// NewFaultDevice wraps a device with fault injection. Compose the
// production stack as NewRetryDevice(NewChecksumDevice(device), cfg).
func NewFaultDevice(backing Device, cfg FaultConfig) *FaultDevice {
	return storage.NewFaultDevice(backing, cfg)
}

// NewRetryDevice wraps a device with retry/backoff.
func NewRetryDevice(backing Device, cfg RetryConfig) *RetryDevice {
	return storage.NewRetryDevice(backing, cfg)
}

// NewChecksumDevice wraps a device with end-to-end checksum verification.
func NewChecksumDevice(backing Device) *ChecksumDevice {
	return storage.NewChecksumDevice(backing)
}

// ---------------------------------------------------------------------------
// Graceful degradation
//
// A failing device must degrade its shard, not the pool. Each shard's
// health ladder (Healthy → Degraded → ReadOnly) is driven by a per-shard
// circuit breaker and quarantine pressure: a Degraded shard
// admission-controls its misses, a ReadOnly shard sheds them immediately
// with ErrOverloaded while resident pages keep serving and dirty
// evictions park losslessly in the quarantine. Compose the resilient
// per-shard stack with PoolConfig.WrapShardDevice:
//
//	cfg.WrapShardDevice = func(shard int, base bpwrapper.Device) bpwrapper.Device {
//		retried := bpwrapper.NewRetryDevice(bpwrapper.NewChecksumDevice(base), retryCfg)
//		bounded := bpwrapper.NewDeadlineDevice(retried, bpwrapper.DeadlineConfig{
//			ReadDeadline: 80 * time.Millisecond, WriteDeadline: 25 * time.Millisecond,
//		})
//		return bpwrapper.NewBreakerDevice(bounded, bpwrapper.BreakerConfig{
//			Window: 64, ErrorThreshold: 0.5, LatencySLO: 10 * time.Millisecond,
//			OpenTimeout: 150 * time.Millisecond,
//		})
//	}
//
// See DESIGN.md §11 for the full degradation contract and the chaos
// scenarios that validate it.

// BreakerDevice is a circuit breaker over a device: it opens on error
// rate or latency-SLO violations across a sliding outcome window,
// rejects operations with ErrBreakerOpen while open, and re-closes via
// half-open probes after OpenTimeout.
type (
	BreakerDevice = storage.BreakerDevice
	BreakerConfig = storage.BreakerConfig
	BreakerState  = storage.BreakerState
	BreakerStats  = storage.BreakerStats
)

// Breaker states, as reported by BreakerDevice.State.
const (
	BreakerClosed   = storage.BreakerClosed
	BreakerOpen     = storage.BreakerOpen
	BreakerHalfOpen = storage.BreakerHalfOpen
)

// DeadlineDevice bounds each device operation by a deadline, abandoning
// (not waiting out) operations that hang; per-page stripe locks keep an
// abandoned write from landing after a later rewrite of the same page.
type (
	DeadlineDevice = storage.DeadlineDevice
	DeadlineConfig = storage.DeadlineConfig
)

// NewBreakerDevice wraps a device with a circuit breaker.
func NewBreakerDevice(backing Device, cfg BreakerConfig) *BreakerDevice {
	return storage.NewBreakerDevice(backing, cfg)
}

// NewDeadlineDevice wraps a device with per-operation deadlines.
func NewDeadlineDevice(backing Device, cfg DeadlineConfig) *DeadlineDevice {
	return storage.NewDeadlineDevice(backing, cfg)
}

// Degradation errors. None of them is retryable: ErrOverloaded and
// ErrBreakerOpen are load-shedding feedback (retrying into an open
// breaker is how brownouts spread), and a deadline miss means the
// operation was abandoned, not that it failed transiently.
var (
	ErrBreakerOpen      = storage.ErrBreakerOpen
	ErrDeadlineExceeded = storage.ErrDeadlineExceeded
	ErrDeviceCanceled   = storage.ErrCanceled
	ErrOverloaded       = buffer.ErrOverloaded
	ErrQuarantineFull   = buffer.ErrQuarantineFull
)

// HealthState is one rung of a shard's degradation ladder; read it with
// Pool.ShardHealth or PoolStats.PerShard[i].Health.
type HealthState = buffer.HealthState

// Health ladder rungs.
const (
	ShardHealthy  = buffer.Healthy
	ShardDegraded = buffer.Degraded
	ShardReadOnly = buffer.ReadOnly
)

// FindBreaker walks a shard's device chain (Pool.ShardDevice) to its
// breaker, if one is present.
func FindBreaker(d Device) (*BreakerDevice, bool) { return storage.FindBreaker(d) }

// FindDeadline walks a shard's device chain to its deadline wrapper, if
// one is present.
func FindDeadline(d Device) (*DeadlineDevice, bool) { return storage.FindDeadline(d) }

// ---------------------------------------------------------------------------
// Observability
//
// The obs layer exposes a pool's full metric tree — per-shard lock
// wait/hold histograms, batch-size and combiner-run distributions, access
// counters, quarantine depth, flight-recorder pressure, device counters —
// as Prometheus text (/metrics) and expvar-style JSON (/debug/vars), plus
// the flight-recorder dump (/debug/events) and the standard pprof
// handlers. Enable the per-shard flight recorder with
// PoolConfig.RecorderSize; register a pool with Pool.RegisterObs.
//
//	reg := bpwrapper.NewObsRegistry()
//	pool.RegisterObs(reg)
//	srv, _ := bpwrapper.NewObsServer(":6060", reg)
//	defer srv.Close()

// Observability types: the scrape registry, its HTTP server, and one
// exposed metric.
type (
	ObsRegistry = obs.Registry
	ObsServer   = obs.Server
	ObsMetric   = obs.Metric
)

// NewObsRegistry returns an empty metrics registry.
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// NewObsServer binds addr (":0" picks a free port) and serves the registry
// over HTTP in the background.
func NewObsServer(addr string, reg *ObsRegistry) (*ObsServer, error) {
	return obs.NewServer(addr, reg)
}

// Request tracing (reqtrace): always-on span capture for the request
// path, enabled with PoolConfig.Trace. A traced request decomposes into
// phase spans (bucket probe, pin, lock wait, combiner handoff, policy
// op, device I/O, quarantine) retained in lock-free rings — head-sampled
// every TraceConfig.SampleEvery requests, with requests that cross
// TraceConfig.SLO kept unconditionally in a tail ring. Register the
// pool's tracer on an ObsRegistry (done by Pool.RegisterObs) to serve
// /debug/traces and exemplar-annotated histograms.
type (
	TraceConfig = reqtrace.Config
	Tracer      = reqtrace.Tracer
	TraceSpan   = reqtrace.Span
	TracePhase  = reqtrace.Phase
	TraceStats  = reqtrace.Stats
)

// NewTracer builds a standalone tracer; reqtrace.New returns nil (a
// valid, disabled tracer) unless cfg.Enable is set.
func NewTracer(cfg TraceConfig) *Tracer { return reqtrace.New(cfg) }

// ---------------------------------------------------------------------------
// Workloads

// Workload generates page-access streams; Access is one page touch.
type (
	Workload = workload.Workload
	Stream   = workload.Stream
	Access   = workload.Access
)

// Workload constructors and configurations.
type (
	TPCWConfig      = workload.TPCWConfig
	TPCCConfig      = workload.TPCCConfig
	TableScanConfig = workload.TableScanConfig
	SyntheticConfig = workload.SyntheticConfig
	YCSBConfig      = workload.YCSBConfig
)

var (
	NewTPCW      = workload.NewTPCW
	NewTPCC      = workload.NewTPCC
	NewTableScan = workload.NewTableScan
	NewZipf      = workload.NewZipf
	NewUniform   = workload.NewUniform
	NewHotspot   = workload.NewHotspot
	NewLoop      = workload.NewLoop
	NewYCSB      = workload.NewYCSB
)

// WorkloadByName resolves a workload by name ("tpcw", "tpcc", "tablescan",
// "zipf", "uniform", "hotspot", "loop", "ycsb-a".."ycsb-f") at its default
// scale.
func WorkloadByName(name string) (Workload, error) { return workload.ByName(name) }

// ---------------------------------------------------------------------------
// Traces

// Trace is a recorded access sequence; TraceResult summarizes a replay.
type (
	Trace       = trace.Trace
	TraceResult = trace.Result
)

// RecordTrace captures a deterministic interleaved trace from a workload.
func RecordTrace(wl Workload, workers, txnsPerWorker int, seed int64) *Trace {
	return trace.Record(wl, workers, txnsPerWorker, seed)
}

// ReplayTrace drives a policy with a trace and returns hit statistics.
func ReplayTrace(p Policy, t *Trace) TraceResult { return trace.Replay(p, t) }

// ReplayTraceBatched replays through the BP-Wrapper batching path, for
// hit-ratio fidelity comparisons.
func ReplayTraceBatched(p Policy, t *Trace, queueSize, threshold int) TraceResult {
	return trace.ReplayBatched(p, t, queueSize, threshold)
}

// ---------------------------------------------------------------------------
// Serving over the network (DESIGN.md §13)

// CacheServer is a TCP front-end over one Pool: a page-cache service
// speaking a length-prefixed binary protocol (GET/PUT/INVALIDATE/FLUSH/
// STATS), pipelined with per-request IDs. Each connection maps onto one
// pool session, so the BP-Wrapper batching protocol sees remote clients
// exactly as it sees in-process workers. CacheClient is its synchronous
// client; Do pipelines a batch of CacheOps in one round trip: the server
// answers a burst with one socket write, from a per-connection response
// buffer that grows to the largest burst served and is never shrunk; its
// ceiling is a fixed 256 KB, past which a burst's responses leave in parts.
//
// A page a client returns — from Get, or as CacheOpResult.Data from Do,
// along with the result slice itself — lies in the client's receive
// buffer where the kernel put it: it is valid until the next call on
// this client; copy to retain.
type (
	CacheServer       = server.Server
	CacheServerConfig = server.Config
	CacheServerStats  = server.Stats
	CacheClient       = server.Client
	CacheOp           = server.Op
	CacheOpResult     = server.OpResult
	RemoteStats       = server.RemoteStats
)

// Pipelined request opcodes for CacheClient.Do.
const (
	CacheOpGet        = server.OpGet
	CacheOpPut        = server.OpPut
	CacheOpInvalidate = server.OpInvalidate
	CacheOpFlush      = server.OpFlush
	CacheOpStats      = server.OpStats
)

// ErrServerDraining resolves a request the server refused past its drain
// grace: the operation was NOT applied (an acknowledged write, by
// contrast, is durable through the drain).
var ErrServerDraining = server.ErrDraining

// NewCacheServer binds the configured address and begins serving cfg.Pool.
// Graceful retirement is CacheServer.Drain: listener closed, pool forced
// read-only, in-flight tails served, then Pool.CloseWithin flushes every
// dirty page.
func NewCacheServer(cfg CacheServerConfig) (*CacheServer, error) { return server.New(cfg) }

// DialCache connects a CacheClient. One client per goroutine: it is
// deliberately not concurrency-safe, mirroring pool sessions.
func DialCache(addr string) (*CacheClient, error) { return server.Dial(addr) }

// DialCacheTimeout is DialCache with a connect timeout.
var DialCacheTimeout = server.DialTimeout

// Fleet driving (bpload, examples/oltp): RunFleet runs workers of a
// Workload against a CacheServer (FleetConfig.Addr) or an in-process Pool
// (FleetConfig.Pool) and folds exact per-worker counters after every
// worker joins; FleetLive is the lagging live view for progress tickers.
type (
	FleetConfig   = server.FleetConfig
	FleetCounters = server.FleetCounters
	FleetResult   = server.FleetResult
	FleetLive     = server.FleetLive
)

// RunFleet drives a CacheServer or a Pool with a fleet of workers.
var RunFleet = server.RunFleet
