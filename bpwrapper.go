// Package bpwrapper is a Go implementation of BP-Wrapper, the framework of
// Ding, Jiang & Zhang, "BP-Wrapper: A System Framework Making Any
// Replacement Algorithms (Almost) Lock Contention Free" (ICDE 2009),
// together with the complete substrate the paper's evaluation needs:
// thirteen buffer replacement algorithms, a PostgreSQL-style buffer-pool
// manager, a simulated storage layer, TPC-W-like / TPC-C-like / TableScan
// workload generators, a load driver (RunFleet), a deterministic
// multiprocessor simulator, and the experiment harness that regenerates
// every table and figure of the paper. This package exports what the
// commands, the examples and the benchmark use.
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
//     is warm while the lock is held. With WrapperConfig.Prefetching a
//     session walks only after a request for the policy lock has found it
//     held (the wrapper's Stats().PrefetchWalks counts the walks).
//
// There is one way to commit a batch — one lock-holding period in the
// wrapper — and the configurations differ only in what a session does at
// the threshold when the lock is busy: block (no batching), keep recording
// until the queue is full (the paper), or, beyond the paper,
// WrapperConfig.FlatCombining: publish the batch and try the lock once —
// the winner applies every session's published batch (examples/flatcombine).
// The designs the paper rejects (one shared queue, Section III-A) are models
// in the simulator (bpbench -exp ablation-queue), not options of the wrapper.
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
	"bpwrapper/internal/core"
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
// number within the table. BufferTag identifies one cached copy of a page
// (page id, frame slot and generation). Page is an 8 KB page image.
type (
	PageID    = page.PageID
	BufferTag = page.BufferTag
	Page      = page.Page
)

// PageSize is the page size in bytes (8 KB, as in PostgreSQL).
const PageSize = page.Size

// NewPageID packs a table number (1..2^20-1) and block number (< 2^44)
// into a PageID.
func NewPageID(table uint32, block uint64) PageID { return page.NewPageID(table, block) }

// ---------------------------------------------------------------------------
// Replacement policies

// Policy is a buffer replacement algorithm. Implementations are not safe
// for concurrent use; the wrapper drives them under one lock.
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

// NewTwoQ constructs a 2Q policy with the paper's default parameters.
var NewTwoQ = replacer.NewTwoQ

// ---------------------------------------------------------------------------
// BP-Wrapper core

// WrapperConfig selects batching/prefetching and tunes the FIFO queue.
type WrapperConfig = core.Config

// NewWrapper builds a standalone wrapper around a policy. Most users want
// NewPool instead, which wires the wrapper into a buffer manager.
func NewWrapper(p Policy, cfg WrapperConfig) *core.Wrapper { return core.New(p, cfg) }

// ---------------------------------------------------------------------------
// Buffer pool

// Pool is the buffer-pool manager: fixed frames, a bucketed page table, and
// one replacement policy reached through the BP-Wrapper core, behind one
// lock made cheap by batching — the paper's configuration.
type Pool = buffer.Pool

// PoolConfig assembles a Pool. PolicyFactory names the replacement
// algorithm; the pool builds one instance sized to its frames.
type PoolConfig = buffer.Config

// PoolSession is a per-backend handle for Pool.Get/GetWrite, carrying the
// backend's batching queue; obtain one per worker goroutine with
// Pool.NewSession.
type PoolSession = buffer.Session

// PolicyFactories returns the named policy constructors ("lru", "2q",
// "lirs", ...), each usable as a PoolConfig.PolicyFactory; a pool calls it
// once. A tuned or custom policy is a closure,
// func(c int) bpwrapper.Policy { return myPolicy(c) }.
func PolicyFactories() map[string]replacer.Factory { return replacer.Factories() }

// PoolStats is an operational snapshot of a Pool (see Pool.Stats), the one
// read of its counters that /metrics renders too, Wrapper (the BP-Wrapper
// statistics) included.
type PoolStats = buffer.Stats

// BackgroundWriter periodically writes dirty pages back to the device and
// drains the pool's dirty quarantine, backing off when the device is down;
// start one with Pool.StartBackgroundWriter.
type (
	BackgroundWriter       = buffer.BackgroundWriter
	BackgroundWriterConfig = buffer.BackgroundWriterConfig
	BackgroundWriterStats  = buffer.BackgroundWriterStats
)

// ErrNoUnpinnedBuffers is returned when every candidate victim is pinned.
var ErrNoUnpinnedBuffers = buffer.ErrNoUnpinnedBuffers

// NewPool builds a buffer pool.
func NewPool(cfg PoolConfig) *Pool { return buffer.New(cfg) }

// ---------------------------------------------------------------------------
// Storage devices

// Device is the storage interface beneath the pool; DeviceStats counts its
// activity, and SimDiskConfig tunes the latency-simulating disk.
type (
	Device        = storage.Device
	DeviceStats   = storage.DeviceStats
	SimDiskConfig = storage.SimDiskConfig
)

// NewMemDevice returns an in-memory page store whose unwritten pages read
// back as a deterministic per-page pattern.
func NewMemDevice() *storage.MemDevice { return storage.NewMemDevice() }

// NewSimDisk wraps a device with per-operation latency and bounded
// parallelism.
func NewSimDisk(backing Device, cfg SimDiskConfig) *storage.SimDisk {
	return storage.NewSimDisk(backing, cfg)
}

// ---------------------------------------------------------------------------
// Fault tolerance

// Error taxonomy of the fault-tolerance stack; classify device failures
// with errors.Is.
var (
	ErrTransient   = storage.ErrTransient   // worth retrying (a flaky bus)
	ErrPermanent   = storage.ErrPermanent   // retrying cannot fix it (a dead sector)
	ErrCorruptPage = storage.ErrCorruptPage // bytes do not match the write-time checksum
	ErrInvalidPage = storage.ErrInvalidPage // the invalid PageID: a caller bug, also over the wire
)

// FaultConfig and RetryConfig tune the fault-injecting and retrying devices.
type (
	FaultConfig = storage.FaultConfig
	RetryConfig = storage.RetryConfig
)

// NewFaultDevice wraps a device with deterministic, seedable fault
// injection (transient or permanent errors, page corruption) for testing and the bpbench chaos experiment (E16). Compose
// the production stack as NewRetryDevice(NewChecksumDevice(device), cfg).
func NewFaultDevice(backing Device, cfg FaultConfig) *storage.FaultDevice {
	return storage.NewFaultDevice(backing, cfg)
}

// NewRetryDevice wraps a device so that retryable failures (transient
// faults, checksum mismatches) are retried with bounded exponential
// backoff and jitter.
func NewRetryDevice(backing Device, cfg RetryConfig) *storage.RetryDevice {
	return storage.NewRetryDevice(backing, cfg)
}

// NewChecksumDevice wraps a device that stamps a checksum on every write
// and verifies it on read, surfacing torn or corrupted pages as
// ErrCorruptPage.
func NewChecksumDevice(backing Device) *storage.ChecksumDevice {
	return storage.NewChecksumDevice(backing)
}

// ---------------------------------------------------------------------------
// Graceful degradation
//
// A failing device degrades the pool to an in-memory cache, not an error
// fountain: a full quarantine moves it Healthy → ReadOnly (misses shed
// with ErrOverloaded, resident pages still served), and Pool.SetReadOnly
// lowers it to ReadOnly for a drain. DESIGN.md §11 has the full
// degradation contract.

// Degradation errors, from a pool that sheds a miss or refuses a dirty
// eviction. Neither is retryable: they are load-shedding feedback, and
// retrying at once is the load the shed exists to refuse.
var (
	ErrOverloaded     = buffer.ErrOverloaded
	ErrQuarantineFull = buffer.ErrQuarantineFull
)

// ---------------------------------------------------------------------------
// Observability
//
// The obs layer serves a pool's metric tree as Prometheus text (/metrics)
// and JSON (/debug/vars), plus the flight-recorder dump (/debug/events,
// PoolConfig.RecorderSize) and pprof; register a pool with Pool.RegisterObs.
//
//	reg := bpwrapper.NewObsRegistry()
//	pool.RegisterObs(reg)
//	srv, _ := bpwrapper.NewObsServer(":6060", reg)
//	defer srv.Close()

// NewObsRegistry returns an empty metrics registry.
func NewObsRegistry() *obs.Registry { return obs.NewRegistry() }

// NewObsServer binds addr (":0" picks a free port) and serves the registry
// over HTTP in the background.
func NewObsServer(addr string, reg *obs.Registry) (*obs.Server, error) {
	return obs.NewServer(addr, reg)
}

// TraceConfig enables request tracing (PoolConfig.Trace): a traced request
// decomposes into phase spans, head-sampled every SampleEvery requests, with
// requests that cross SLO always kept; Pool.RegisterObs serves them at
// /debug/traces.
type TraceConfig = reqtrace.Config

// ---------------------------------------------------------------------------
// Workloads and traces

// Workload generates page-access streams; Access is one page touch. The
// configurations and constructors build the generators the examples use.
type (
	Workload        = workload.Workload
	Stream          = workload.Stream
	Access          = workload.Access
	TPCCConfig      = workload.TPCCConfig
	TableScanConfig = workload.TableScanConfig
	SyntheticConfig = workload.SyntheticConfig
	YCSBConfig      = workload.YCSBConfig
)

var (
	NewTPCC      = workload.NewTPCC
	NewTableScan = workload.NewTableScan
	NewZipf      = workload.NewZipf
	NewYCSB      = workload.NewYCSB
)

// WorkloadByName resolves a workload by name ("tpcw", "tpcc", "tablescan",
// "zipf", "uniform", "hotspot", "loop", "ycsb-a".."ycsb-f") at its default scale.
func WorkloadByName(name string) (Workload, error) { return workload.ByName(name) }

// RecordTrace captures a deterministic interleaved access sequence from a
// workload.
func RecordTrace(wl Workload, workers, txnsPerWorker int, seed int64) *trace.Trace {
	return trace.Record(wl, workers, txnsPerWorker, seed)
}

// ReplayTrace drives a policy with a recorded trace and returns hit
// statistics.
func ReplayTrace(p Policy, t *trace.Trace) trace.Result { return trace.Replay(p, t) }

// ---------------------------------------------------------------------------
// Serving over the network (DESIGN.md §13)

// CacheServer is a TCP front-end over one Pool speaking a length-prefixed,
// pipelined binary protocol; each connection maps onto one pool session.
// CacheClient is its synchronous client; Do pipelines a batch of CacheOps
// in one round trip. A page a client returns — from Get, or as
// CacheOpResult.Data from Do, along with the result slice itself — lies in
// the client's receive buffer: it is valid until the next call on this
// client; copy to retain.
type (
	CacheServer       = server.Server
	CacheServerConfig = server.Config
	CacheServerStats  = server.Stats
	CacheClient       = server.Client
	CacheOp           = server.Op
	CacheOpResult     = server.OpResult
)

// Pipelined request opcodes for CacheClient.Do.
const (
	CacheOpGet = server.OpGet
	CacheOpPut = server.OpPut
)

// ErrServerDraining resolves a request the server refused past its drain
// grace: the operation was NOT applied (an acknowledged write is durable).
var ErrServerDraining = server.ErrDraining

// NewCacheServer binds the configured address and begins serving cfg.Pool;
// CacheServer.Drain retires it and flushes every dirty page.
func NewCacheServer(cfg CacheServerConfig) (*CacheServer, error) { return server.New(cfg) }

// DialCache connects a CacheClient. One client per goroutine: it is
// deliberately not concurrency-safe, mirroring pool sessions.
func DialCache(addr string) (*CacheClient, error) { return server.Dial(addr) }

// Fleet driving (bpload, examples/oltp): RunFleet runs workers of a
// Workload against a CacheServer (FleetConfig.Addr) or an in-process Pool
// (FleetConfig.Pool) and folds exact per-worker counters after every
// worker joins; FleetLive is the lagging live view for progress tickers.
type (
	FleetConfig = server.FleetConfig
	FleetLive   = server.FleetLive
)

// RunFleet drives a CacheServer or a Pool with a fleet of workers.
var RunFleet = server.RunFleet
