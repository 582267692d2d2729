package sim

import (
	"errors"
	"time"

	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/workload"
)

// Params are the virtual-machine cost constants, in virtual nanoseconds.
// The defaults are calibrated to 2007-era server hardware so the simulated
// curves land in the same regime as the paper's: per-access transaction
// work around 8µs, critical sections under a microsecond, context switches
// around a microsecond, millisecond scheduler quanta. Only ratios matter
// for the reproduced shapes.
type Params struct {
	// UserWork is the transaction-processing time per page access outside
	// the buffer manager (executor, tuple operations).
	UserWork Time

	// HashLookup is the buffer hash-table probe (per access, uncontended —
	// the paper argues per-bucket locks make it scalable, so it is modelled
	// as plain CPU time).
	HashLookup Time

	// PolicyOp is the critical-section cost of applying one access to the
	// replacement algorithm's data structure once its lines are cached.
	PolicyOp Time

	// LockWarmup is the processor-cache warm-up penalty paid inside the
	// critical section when its data is not yet cached — the cost the
	// prefetching technique moves out of the lock-holding period.
	LockWarmup Time

	// PrefetchWork is the (non-critical-section) cost of the prefetch
	// read pass. Typically equals LockWarmup: the same misses, paid
	// outside the lock.
	PrefetchWork Time

	// LockGrab is the uncontended lock acquisition cost.
	LockGrab Time

	// TryLock is the cost of a TryLock attempt.
	TryLock Time

	// CtxSwitch is the dispatch latency charged when a blocked lock
	// acquisition is granted (park/unpark and scheduling).
	CtxSwitch Time

	// RefBit is the clock algorithms' lock-free hit cost (an atomic
	// reference-bit update).
	RefBit Time

	// MissWork is the extra critical-section cost of a miss (victim
	// selection and bookkeeping) beyond PolicyOp.
	MissWork Time

	// IOLatency is the disk service time per page read on a miss.
	IOLatency Time

	// IOParallelism is the number of concurrently serviceable disk
	// operations (spindles).
	IOParallelism int

	// TimeSlice is the scheduler quantum: a runnable thread keeps its
	// processor for this long before yielding to the FIFO run queue. The
	// overcommitted configuration (2 workers per processor, as in the
	// paper) time-shares through it.
	TimeSlice Time

	// WALWork is the critical-section cost of appending a log record for
	// one write access, under the DBMS's (single) write-ahead-log lock.
	// The paper observes that on DBT-2 "the contention on other locks,
	// such as the one to serialize Write-Ahead-Logging activities, becomes
	// intensive with the growing number of processors", bending even
	// pgClock's throughput curve; modelling the WAL lock reproduces that.
	// Zero disables WAL modelling.
	WALWork Time
}

// DefaultParams returns the calibrated cost constants. Calibration target:
// at 16 processors the unwrapped 2Q system should lose roughly half to
// two-thirds of the clock system's throughput (the paper reports 57-67%
// across workloads, summarized as "nearly two folds"), while the batched
// systems stay within a few percent of clock and single-processor runs
// show almost no contention.
func DefaultParams() Params {
	return Params{
		UserWork:      8000,
		HashLookup:    200,
		PolicyOp:      120,
		LockWarmup:    1200,
		PrefetchWork:  1200,
		LockGrab:      50,
		TryLock:       30,
		CtxSwitch:     1000,
		RefBit:        30,
		MissWork:      300,
		IOLatency:     Time(2 * time.Millisecond),
		IOParallelism: 10,
		TimeSlice:     Time(3 * time.Millisecond),
		WALWork:       1500,
	}
}

// normalize resolves zero-valued cost fields to their defaults so partial
// Params overrides behave predictably (a zero TimeSlice, for example,
// would let a runnable worker monopolize its processor forever).
func (p *Params) normalize() {
	d := DefaultParams()
	if p.UserWork < 0 {
		p.UserWork = d.UserWork
	}
	if p.HashLookup <= 0 {
		p.HashLookup = d.HashLookup
	}
	if p.PolicyOp <= 0 {
		p.PolicyOp = d.PolicyOp
	}
	if p.LockWarmup < 0 {
		p.LockWarmup = d.LockWarmup
	}
	if p.PrefetchWork < 0 {
		p.PrefetchWork = d.PrefetchWork
	}
	if p.LockGrab <= 0 {
		p.LockGrab = d.LockGrab
	}
	if p.TryLock <= 0 {
		p.TryLock = d.TryLock
	}
	if p.CtxSwitch <= 0 {
		p.CtxSwitch = d.CtxSwitch
	}
	if p.RefBit <= 0 {
		p.RefBit = d.RefBit
	}
	if p.MissWork < 0 {
		p.MissWork = d.MissWork
	}
	if p.IOLatency <= 0 {
		p.IOLatency = d.IOLatency
	}
	if p.IOParallelism <= 0 {
		p.IOParallelism = d.IOParallelism
	}
	if p.TimeSlice <= 0 {
		p.TimeSlice = d.TimeSlice
	}
	if p.WALWork < 0 {
		p.WALWork = d.WALWork
	}
}

// Config describes one simulated run.
type Config struct {
	// Procs is the number of virtual processors (the paper's x-axis).
	Procs int

	// Workers is the number of backend threads. Zero means 2×Procs (the
	// paper keeps the system overcommitted).
	Workers int

	// Policy is the replacement algorithm name (package replacer).
	Policy string

	// Batching/Prefetching select the BP-Wrapper techniques.
	Batching    bool
	Prefetching bool

	// QueueSize and BatchThreshold tune the batching queue; zeros mean the
	// paper's 64/32.
	QueueSize      int
	BatchThreshold int

	// SharedQueue switches to the single shared queue Section III-A rejects.
	// This model is the implementation of record for the E7 ablation: the
	// production wrapper (internal/core) has private queues only.
	SharedQueue bool

	// FlatCombining models the flat-combining scheduler (see
	// core/combine.go): at the batch threshold a worker publishes its batch
	// in a per-worker slot and tries the lock once — the winner applies
	// every published batch; losers swap to a spare buffer and continue
	// without blocking. Requires Batching; ignored with SharedQueue.
	FlatCombining bool

	// AdaptiveThreshold enables the per-worker self-tuning batch threshold
	// — an extension of the paper's Table III analysis, which shows the
	// best threshold sits strictly between "tiny batches" (premature
	// commits) and "threshold = queue size" (no TryLock attempts left):
	// down on forced commits (it should have started trying earlier), up
	// after sustained first-attempt TryLock successes (it can afford bigger
	// batches), bounded to [QueueSize/8, 3·QueueSize/4]. This model is the
	// implementation of record for E11: the production wrapper's threshold
	// is steered wrapper-wide by the controller (Wrapper.SetBatchThreshold)
	// and has no per-session tuner.
	AdaptiveThreshold bool

	// LockPartitions, when > 1, switches to the distributed-lock design of
	// Section V-A: the buffer is hash-partitioned into this many
	// independent instances of Policy, each with its own lock. Mutually
	// exclusive with Batching/SharedQueue (those are BP-Wrapper's single-
	// lock techniques).
	LockPartitions int

	// Workload supplies the access streams.
	Workload workload.Workload

	// Frames is the buffer capacity in pages. Zero means the workload's
	// full working set (the zero-miss scalability methodology).
	Frames int

	// Prewarm loads the working set before measurement begins when the
	// buffer can hold it.
	Prewarm bool

	// Warmup is virtual time run before measurement begins: the workers
	// execute normally but all statistics are zeroed when it elapses, so
	// cold-start misses do not pollute steady-state numbers. Zero means no
	// warm-up phase.
	Warmup Time

	// Duration is the measured virtual time (after Warmup). Zero means 1
	// virtual second.
	Duration Time

	// Seed feeds the workload streams.
	Seed int64

	// Params are the cost constants; the zero value means DefaultParams.
	Params *Params
}

// Result aggregates a simulated run's measurements, mirroring txn.Result.
type Result struct {
	Procs   int
	Workers int

	Txns     int64
	Accesses int64
	Hits     int64
	Misses   int64
	Elapsed  time.Duration // virtual

	ThroughputTPS     float64
	AvgResponse       time.Duration // virtual
	HitRatio          float64
	Lock              LockStats
	ContentionPerM    float64
	LockTimePerAccess time.Duration

	Committed int64 // batched hit records applied
	Dropped   int64 // stale records dropped at commit

	// Flat-combining activity (Config.FlatCombining only).
	CombinedBatches int64 // other workers' published batches applied by a combiner
	CombinedEntries int64 // entries in those batches
	HandoffSaved    int64 // publishes whose TryLock failed: handed off instead of blocking
}

// Run executes one simulation and returns its measurements. It is
// deterministic: the same Config yields the same Result.
func Run(cfg Config) (Result, error) {
	res, _, err := runInternal(cfg)
	return res, err
}

func runInternal(cfg Config) (Result, *machine, error) {
	if cfg.Workload == nil {
		return Result{}, nil, errors.New("sim: Workload is required")
	}
	if cfg.Procs <= 0 {
		return Result{}, nil, errors.New("sim: Procs must be positive")
	}
	if cfg.LockPartitions > 1 && (cfg.Batching || cfg.SharedQueue) {
		return Result{}, nil, errors.New("sim: LockPartitions excludes Batching/SharedQueue")
	}
	params := DefaultParams()
	if cfg.Params != nil {
		params = *cfg.Params
		params.normalize()
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2 * cfg.Procs
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 64
	}
	if cfg.BatchThreshold <= 0 {
		cfg.BatchThreshold = cfg.QueueSize / 2
	}
	if cfg.BatchThreshold < 1 {
		cfg.BatchThreshold = 1
	}
	if cfg.BatchThreshold > cfg.QueueSize {
		cfg.BatchThreshold = cfg.QueueSize
	}
	if !cfg.Batching || cfg.SharedQueue {
		// Flat combining is a batching commit protocol (core.Config
		// normalizes it the same way) and the shared queue has no
		// per-worker slots.
		cfg.FlatCombining = false
	}
	if cfg.Frames <= 0 {
		cfg.Frames = cfg.Workload.DataPages()
	}
	if cfg.Duration <= 0 {
		cfg.Duration = Time(time.Second)
	}

	m := &machine{
		cfg:    cfg,
		params: params,
		k:      NewKernel(),
	}
	if cfg.LockPartitions > 1 {
		factory, ok := replacer.Factories()[cfg.Policy]
		if !ok {
			return Result{}, nil, errors.New("sim: unknown policy " + cfg.Policy)
		}
		part := replacer.NewPartitioned(cfg.Frames, cfg.LockPartitions, factory)
		m.policy = part
		m.partitioned = part
		m.locks = make([]*Lock, cfg.LockPartitions)
	} else {
		pol, ok := replacer.New(cfg.Policy, cfg.Frames)
		if !ok {
			return Result{}, nil, errors.New("sim: unknown policy " + cfg.Policy)
		}
		m.policy = pol
		m.locks = make([]*Lock, 1)
	}
	for i := range m.locks {
		m.locks[i] = NewLock(m.k)
	}
	m.cpu = NewResource(cfg.Procs)
	m.disk = NewResource(params.IOParallelism)
	if cfg.SharedQueue {
		m.qlock = NewLock(m.k)
	}
	if params.WALWork > 0 {
		m.wal = NewLock(m.k)
	}
	m.lockFreeHit = !replacer.HitNeedsLock(m.policy)
	if m.partitioned != nil {
		// Partitioned clock still has lock-free hits; anything else does
		// not. HitNeedsLock on the wrapper reports conservatively, so ask
		// the underlying algorithm instead.
		probe, _ := replacer.New(cfg.Policy, 1)
		m.lockFreeHit = !replacer.HitNeedsLock(probe)
	}

	if cfg.Prewarm && cfg.Frames >= cfg.Workload.DataPages() {
		for _, id := range cfg.Workload.Pages() {
			m.policy.Admit(id)
		}
	}

	for w := 0; w < cfg.Workers; w++ {
		wk := &simWorker{
			m:      m,
			id:     w,
			stream: cfg.Workload.NewStream(w, cfg.Seed),
			rng:    uint64(cfg.Seed)*0x9e3779b97f4a7c15 + uint64(w+1)*0xbf58476d1ce4e5b9,
		}
		m.workers = append(m.workers, wk)
		m.k.Spawn(wk.run)
	}
	if cfg.Warmup > 0 {
		m.k.Spawn(func(p *Process) {
			p.Sleep(cfg.Warmup)
			m.resetStats()
		})
	}
	end := m.k.Run(0) - cfg.Warmup
	if end < 0 {
		end = 0
	}

	var lockStats LockStats
	for _, l := range m.locks {
		s := l.Stats()
		lockStats.Acquisitions += s.Acquisitions
		lockStats.Contentions += s.Contentions
		lockStats.TryFailures += s.TryFailures
		lockStats.WaitTime += s.WaitTime
		lockStats.HoldTime += s.HoldTime
	}
	if m.qlock != nil {
		// The shared-queue design's own mutex is part of the replacement
		// path; fold its contention into the reported lock statistics.
		qs := m.qlock.Stats()
		lockStats.Acquisitions += qs.Acquisitions
		lockStats.Contentions += qs.Contentions
		lockStats.TryFailures += qs.TryFailures
		lockStats.WaitTime += qs.WaitTime
		lockStats.HoldTime += qs.HoldTime
	}
	res := Result{
		Procs:    cfg.Procs,
		Workers:  cfg.Workers,
		Elapsed:  time.Duration(end),
		Lock:     lockStats,
		Hits:     m.hits,
		Misses:   m.misses,
		Accesses: m.hits + m.misses,
		Txns:     m.txns,
	}
	res.Committed = m.committed
	res.Dropped = m.dropped
	res.CombinedBatches = m.combinedBatches
	res.CombinedEntries = m.combinedEntries
	res.HandoffSaved = m.handoffSaved
	if res.Accesses > 0 {
		res.HitRatio = float64(m.hits) / float64(res.Accesses)
		res.ContentionPerM = float64(res.Lock.Contentions) * 1e6 / float64(res.Accesses)
		res.LockTimePerAccess = time.Duration((res.Lock.WaitTime + res.Lock.HoldTime) / Time(res.Accesses))
	}
	if end > 0 {
		res.ThroughputTPS = float64(m.txns) / (float64(end) / 1e9)
	}
	if m.txns > 0 {
		res.AvgResponse = time.Duration(m.latencySum / Time(m.txns))
	}
	return res, m, nil
}

// machine is the shared simulated hardware and DBMS state.
type machine struct {
	cfg    Config
	params Params
	k      *Kernel
	cpu    *Resource
	disk   *Resource
	locks  []*Lock // one, or one per partition in distributed-lock mode
	qlock  *Lock   // shared-queue mutex (ablation mode only)
	wal    *Lock   // write-ahead-log lock (WALWork > 0 only)

	policy      replacer.Policy       // all calls single-threaded by construction
	partitioned *replacer.Partitioned // non-nil in distributed-lock mode
	lockFreeHit bool

	shared []page.PageID // shared batching queue (ablation mode)

	workers    []*simWorker
	txns       int64
	hits       int64
	misses     int64
	committed  int64
	dropped    int64
	latencySum Time

	combinedBatches int64 // flat combining: foreign batches applied by combiners
	combinedEntries int64
	handoffSaved    int64
}

// lockFor returns the lock protecting the partition that owns id.
func (m *machine) lockFor(id page.PageID) *Lock {
	if m.partitioned == nil {
		return m.locks[0]
	}
	return m.locks[m.partitioned.Partition(id)]
}

// resetStats zeroes the measurement counters at the warmup boundary.
func (m *machine) resetStats() {
	m.txns = 0
	m.hits = 0
	m.misses = 0
	m.committed = 0
	m.dropped = 0
	m.latencySum = 0
	m.combinedBatches = 0
	m.combinedEntries = 0
	m.handoffSaved = 0
	for _, l := range m.locks {
		l.stats = LockStats{}
	}
	if m.qlock != nil {
		m.qlock.stats = LockStats{}
	}
}

// simWorker is one simulated backend thread.
type simWorker struct {
	m      *machine
	id     int
	stream workload.Stream
	queue  []page.PageID // private batching queue
	buf    []workload.Access

	// Flat-combining state (cfg.FlatCombining only): the published batch
	// (nil when the slot is empty) and the spare buffer of the
	// double-buffer rotation. The discrete-event kernel is single-threaded,
	// so plain fields model what the real implementation does with padded
	// atomic slots.
	pub   []page.PageID
	spare []page.PageID

	cpuHeld bool
	slice   Time   // CPU time used in the current quantum
	rng     uint64 // xorshift state for deterministic work jitter

	threshold int // adaptive batch threshold (AdaptiveThreshold only)
	trialRuns int // consecutive first-attempt TryLock successes
}

// curThreshold returns the worker's effective batch threshold.
func (w *simWorker) curThreshold() int {
	if w.threshold > 0 {
		return w.threshold
	}
	return w.m.cfg.BatchThreshold
}

// adaptDown lowers the threshold after a forced blocking commit.
func (w *simWorker) adaptDown() {
	if !w.m.cfg.AdaptiveThreshold {
		return
	}
	min := w.m.cfg.QueueSize / 8
	if min < 1 {
		min = 1
	}
	w.trialRuns = 0
	w.threshold = w.curThreshold() - w.m.cfg.QueueSize/8
	if w.threshold < min {
		w.threshold = min
	}
}

// adaptUp raises the threshold after sustained first-attempt successes.
func (w *simWorker) adaptUp() {
	if !w.m.cfg.AdaptiveThreshold {
		return
	}
	w.trialRuns++
	if w.trialRuns < 8 {
		return
	}
	w.trialRuns = 0
	max := 3 * w.m.cfg.QueueSize / 4
	if max < 1 {
		max = 1
	}
	w.threshold = w.curThreshold() + 1
	if w.threshold > max {
		w.threshold = max
	}
}

// jitteredUserWork returns this access's transaction-processing cost:
// UserWork ±25%, from a per-worker deterministic xorshift. Without jitter
// the homogeneous per-access costs phase-lock the workers — every thread
// reaches the lock at the same virtual instant, forming a permanent convoy
// that real systems' timing noise prevents.
func (w *simWorker) jitteredUserWork() Time {
	w.rng ^= w.rng << 13
	w.rng ^= w.rng >> 7
	w.rng ^= w.rng << 17
	base := w.m.params.UserWork
	if base <= 0 {
		return 0
	}
	span := uint64(base) / 2 // ±25%
	if span == 0 {
		return base
	}
	return base - base/4 + Time(w.rng%span)
}

// ensureCPU puts the worker on a processor (FIFO behind other runnable
// threads), starting a fresh scheduler quantum.
func (w *simWorker) ensureCPU(p *Process) {
	if !w.cpuHeld {
		w.m.cpu.Acquire(p)
		w.cpuHeld = true
		w.slice = 0
	}
}

// releaseCPU gives the processor up (blocking on a lock or I/O, end of
// run).
func (w *simWorker) releaseCPU(p *Process) {
	if w.cpuHeld {
		w.m.cpu.Release(p)
		w.cpuHeld = false
	}
}

// useCPU models d of CPU-bound work under quantum scheduling: the worker
// keeps its processor until the time slice is exhausted, then re-queues.
// Unlike a segment-per-acquire model, this reproduces real schedulers:
// at one processor a thread performs thousands of accesses per slice, so
// single-processor runs show almost no lock contention (as the paper
// observes), while true multiprocessor parallelism does contend.
func (w *simWorker) useCPU(p *Process, d Time) {
	quantum := w.m.params.TimeSlice
	for d > 0 {
		w.ensureCPU(p)
		run := d
		if quantum > 0 && run > quantum-w.slice {
			run = quantum - w.slice
		}
		if run <= 0 { // quantum already exhausted: yield first
			w.releaseCPU(p)
			continue
		}
		p.Sleep(run)
		w.slice += run
		d -= run
		if quantum > 0 && w.slice >= quantum {
			w.releaseCPU(p)
		}
	}
}

// useCPUHeld is useCPU for work performed while holding a lock: the
// quantum is not enforced, so a lock holder is never parked behind the
// whole run queue mid-critical-section. A FIFO run queue would otherwise
// turn a rare preemption-in-CS into a convoy that stalls the lock for
// many quanta — real schedulers avoid exactly that with wakeup priority
// boosts, which are out of scope here. Slice usage still accrues, so the
// worker yields at its next preemptible step.
func (w *simWorker) useCPUHeld(p *Process, d Time) {
	if d <= 0 {
		return
	}
	w.ensureCPU(p)
	p.Sleep(d)
	w.slice += d
}

// acquireLock obtains l following the blocking protocol: an immediate
// grant costs nothing extra; otherwise the worker gives up its processor,
// parks in the lock's FIFO queue, and — crucially — reacquires a
// *processor* first when woken, paying the context-switch dispatch cost,
// before competing for the lock again. Granting the lock to a thread that
// still has to queue for a CPU would count the scheduling delay as lock
// hold time and manufacture convoys real systems do not have.
func (w *simWorker) acquireLock(p *Process, l *Lock) {
	if l.TryAcquireSilent() {
		return
	}
	l.NoteContention()
	start := p.Now()
	for {
		w.releaseCPU(p)
		l.WaitWoken(p)
		w.ensureCPU(p)
		w.useCPU(p, w.m.params.CtxSwitch)
		if l.TryAcquireSilent() {
			l.AddWait(p.Now() - start)
			return
		}
	}
}

// run is the backend main loop: execute transactions until the measured
// virtual duration has elapsed.
func (w *simWorker) run(p *Process) {
	m := w.m
	for p.Now() < m.cfg.Warmup+m.cfg.Duration {
		start := p.Now()
		w.buf = w.stream.NextTxn(w.buf[:0])
		for _, a := range w.buf {
			w.access(p, a.Page, a.Write)
		}
		m.latencySum += p.Now() - start
		m.txns++
	}
	w.flush(p)
	w.releaseCPU(p)
}

// access performs one page access under the configured locking protocol.
// Write accesses additionally append a WAL record under the (global) WAL
// lock — a second contention source, independent of the replacement lock,
// that bounds every system's scalability on write-heavy workloads.
func (w *simWorker) access(p *Process, id page.PageID, write bool) {
	m := w.m
	pr := m.params
	w.useCPU(p, w.jitteredUserWork()+pr.HashLookup)
	if write && m.wal != nil {
		w.acquireLock(p, m.wal)
		w.useCPUHeld(p, pr.WALWork)
		m.wal.Release(p)
	}
	if m.policy.Contains(id) {
		m.hits++
		w.hit(p, id)
		return
	}
	m.misses++
	w.miss(p, id)
}

// hit runs replacement_for_page_hit (Figure 4 of the paper) in virtual
// time.
func (w *simWorker) hit(p *Process, id page.PageID) {
	m := w.m
	pr := m.params
	if m.lockFreeHit {
		// Clock family: one atomic reference-bit update, no lock.
		w.useCPU(p, pr.RefBit)
		m.policy.Hit(id)
		return
	}
	if !m.cfg.Batching {
		// One lock acquisition per access (pg2Q / pgPre / distributed).
		l := m.lockFor(id)
		warm := pr.LockWarmup
		var ver uint64
		if m.cfg.Prefetching {
			w.useCPU(p, pr.PrefetchWork)
			ver = l.Version()
		}
		w.acquireLock(p, l)
		if m.cfg.Prefetching && l.Version() == ver+1 {
			// No other acquisition intervened since the prefetch: the
			// cache lines are still warm.
			warm = 0
		}
		w.csApplyHits(p, pr.LockGrab+warm, []page.PageID{id})
		l.Release(p)
		return
	}
	// Batching: record in the FIFO queue; commit at the threshold with
	// TryLock, or with a blocking Lock when the queue is full.
	if m.cfg.SharedQueue {
		// The rejected design of Section III-A: every append must take the
		// shared queue's own mutex and transfer its cache lines between
		// processors — exactly the synchronization and coherence cost the
		// paper's private queues avoid.
		w.acquireLock(p, m.qlock)
		w.useCPUHeld(p, pr.LockGrab+pr.PolicyOp)
		m.shared = append(m.shared, id)
		commit := len(m.shared) >= m.cfg.BatchThreshold
		force := len(m.shared) >= m.cfg.QueueSize
		m.qlock.Release(p)
		if commit {
			w.commitShared(p, force)
		}
		return
	}
	w.queue = append(w.queue, id)
	if len(w.queue) < w.curThreshold() {
		return
	}
	if m.cfg.FlatCombining {
		w.fcCommit(p)
		return
	}
	w.commit(p, len(w.queue) >= m.cfg.QueueSize)
}

// commit attempts to apply the private queue under the lock, following the
// TryLock-then-block protocol.
func (w *simWorker) commit(p *Process, force bool) {
	m := w.m
	pr := m.params
	l := m.locks[0]
	warm := pr.LockWarmup
	var ver uint64
	if m.cfg.Prefetching {
		w.useCPU(p, pr.PrefetchWork)
		ver = l.Version()
	}
	if force {
		w.acquireLock(p, l)
		w.adaptDown()
	} else {
		w.useCPU(p, pr.TryLock)
		first := len(w.queue) == w.curThreshold()
		if !l.TryAcquire(p) {
			return // stay queued; retry at next threshold crossing
		}
		if first {
			w.adaptUp()
		}
	}
	if m.cfg.Prefetching && l.Version() == ver+1 {
		warm = 0
	}
	w.csApplyHits(p, pr.LockGrab+warm, w.queue)
	l.Release(p)
	w.queue = w.queue[:0]
}

// fcCommit runs the flat-combining protocol at the batch threshold: with
// an empty slot, publish and try the lock once — win and become the
// combiner, or hand the batch off and keep recording in the spare buffer.
// With the slot still occupied, block only when the queue has also filled
// (the bounded-memory fall-back).
func (w *simWorker) fcCommit(p *Process) {
	m := w.m
	pr := m.params
	l := m.locks[0]
	if w.pub == nil {
		if m.cfg.Prefetching {
			w.useCPU(p, pr.PrefetchWork)
		}
		ver := l.Version()
		first := len(w.queue) == w.curThreshold()
		// Publish: one release store into the slot, then swap to the spare
		// buffer (the double-buffer rotation).
		w.pub = w.queue
		if w.spare != nil {
			w.queue = w.spare[:0]
			w.spare = nil
		} else {
			w.queue = make([]page.PageID, 0, m.cfg.QueueSize)
		}
		w.useCPU(p, pr.RefBit+pr.TryLock)
		if !l.TryAcquire(p) {
			// The current lock holder will drain the slot; nothing to wait
			// for. This is the handoff the TryLock-or-block protocol lacks.
			m.handoffSaved++
			return
		}
		if first {
			w.adaptUp()
		}
		warm := pr.LockWarmup
		if m.cfg.Prefetching && l.Version() == ver+1 {
			warm = 0
		}
		w.combine(p, pr.LockGrab+warm)
		l.Release(p)
		return
	}
	if len(w.queue) < m.cfg.QueueSize {
		return // slot occupied, queue not full: keep recording
	}
	// Both buffers full: blocking forced commit, published (older) batch
	// first.
	if m.cfg.Prefetching {
		w.useCPU(p, pr.PrefetchWork)
	}
	w.acquireLock(p, l)
	w.adaptDown()
	entry := pr.LockGrab + pr.LockWarmup
	if w.pub != nil {
		w.csApplyHits(p, entry, w.pub)
		entry = 0
		w.spare = w.pub[:0]
		w.pub = nil
	}
	w.csApplyHits(p, entry, w.queue)
	w.combineOthers(p, 0)
	l.Release(p)
	w.queue = w.queue[:0]
}

// combine is the combiner's critical section: apply the worker's own
// published batch, then every other worker's. entry is the one-time
// lock-grab + warm-up cost, charged with the first applied batch.
func (w *simWorker) combine(p *Process, entry Time) {
	if w.pub != nil {
		w.csApplyHits(p, entry, w.pub)
		entry = 0
		w.spare = w.pub[:0]
		w.pub = nil
	}
	entry = w.combineOthers(p, entry)
	w.useCPUHeld(p, entry) // slot already drained by someone: still pay the grab
}

// combineOthers scans every other worker's publication slot (one probe
// each) and applies any published batch, returning the drained buffer to
// its owner's spare. It returns the unconsumed entry cost (zero once a
// batch has been applied). Callers must hold the policy lock.
func (w *simWorker) combineOthers(p *Process, entry Time) Time {
	m := w.m
	for _, other := range m.workers {
		if other == w {
			continue
		}
		// Probing an empty slot is a read of a line that last changed when
		// this combiner (or a predecessor) drained it — overwhelmingly a
		// cache hit, so only claiming a published batch is charged.
		if other.pub == nil {
			continue
		}
		w.useCPUHeld(p, m.params.RefBit) // claim: one atomic swap
		m.combinedBatches++
		m.combinedEntries += int64(len(other.pub))
		w.csApplyHits(p, entry, other.pub)
		entry = 0
		other.spare = other.pub[:0]
		other.pub = nil
	}
	return entry
}

// commitShared is commit for the shared-queue ablation.
func (w *simWorker) commitShared(p *Process, force bool) {
	m := w.m
	pr := m.params
	l := m.locks[0]
	// Stealing the batch requires the queue mutex again.
	w.acquireLock(p, m.qlock)
	w.useCPUHeld(p, pr.LockGrab)
	batch := make([]page.PageID, len(m.shared))
	copy(batch, m.shared)
	m.shared = m.shared[:0]
	m.qlock.Release(p)
	if len(batch) == 0 {
		return
	}
	if force {
		w.acquireLock(p, l)
	} else {
		w.useCPU(p, pr.TryLock)
		if !l.TryAcquire(p) {
			// Put the batch back, as the real implementation does.
			w.acquireLock(p, m.qlock)
			w.useCPUHeld(p, pr.LockGrab)
			m.shared = append(batch, m.shared...)
			m.qlock.Release(p)
			return
		}
	}
	w.csApplyHits(p, pr.LockGrab+pr.LockWarmup, batch)
	l.Release(p)
}

// csApplyHits spends the critical section: fixed entry cost plus one
// policy operation per still-resident queued access. The residency check
// is the simulated analogue of the BufferTag validation.
func (w *simWorker) csApplyHits(p *Process, entry Time, ids []page.PageID) {
	m := w.m
	cs := entry
	for _, id := range ids {
		if m.policy.Contains(id) {
			m.policy.Hit(id)
			m.committed++
			cs += m.params.PolicyOp
		} else {
			m.dropped++
		}
	}
	w.useCPUHeld(p, cs)
}

// miss runs replacement_for_page_miss: commit the queue, admit the page,
// then perform the disk read.
func (w *simWorker) miss(p *Process, id page.PageID) {
	m := w.m
	pr := m.params
	l := m.lockFor(id)
	w.acquireLock(p, l)
	if m.policy.Contains(id) {
		// Another worker loaded the page while this one was queued for a
		// processor or the lock — the simulated analogue of the buffer
		// manager's single-flight load. Reclassify as a hit.
		m.misses--
		m.hits++
		m.policy.Hit(id)
		w.useCPUHeld(p, pr.LockGrab+pr.PolicyOp)
		l.Release(p)
		return
	}
	if m.cfg.FlatCombining && w.pub != nil {
		// The session's published (older) batch is applied before its
		// private queue, preserving per-worker access order.
		w.csApplyHits(p, 0, w.pub)
		w.spare = w.pub[:0]
		w.pub = nil
	}
	cs := pr.LockGrab + pr.LockWarmup + pr.MissWork + pr.PolicyOp
	pending := w.queue
	if m.cfg.SharedQueue {
		// Steal the shared queue under its mutex (policy lock is already
		// held; commitShared never holds the queue mutex while waiting for
		// the policy lock, so the order is acyclic).
		w.acquireLock(p, m.qlock)
		pending = make([]page.PageID, len(m.shared))
		copy(pending, m.shared)
		m.shared = m.shared[:0]
		m.qlock.Release(p)
	}
	for _, qid := range pending {
		if m.policy.Contains(qid) {
			m.policy.Hit(qid)
			m.committed++
			cs += pr.PolicyOp
		} else {
			m.dropped++
		}
	}
	if !m.cfg.SharedQueue {
		w.queue = w.queue[:0]
	}
	m.policy.Admit(id)
	w.useCPUHeld(p, cs)
	if m.cfg.FlatCombining {
		// The lock is held anyway: drain the other workers' slots.
		w.combineOthers(p, 0)
	}
	l.Release(p)

	// The disk read happens outside the lock (as in PostgreSQL, where the
	// buffer is pinned and I/O-locked but the replacement lock is free)
	// and off the processor.
	w.releaseCPU(p)
	m.disk.Acquire(p)
	p.Sleep(pr.IOLatency)
	m.disk.Release(p)
}

// flush commits any leftover queued accesses at the end of the run.
func (w *simWorker) flush(p *Process) {
	if w.m.cfg.FlatCombining {
		w.fcFlush(p)
		return
	}
	if len(w.queue) > 0 {
		w.commit(p, true)
	}
}

// fcFlush drains the worker's published batch and private queue (in that
// order) under a blocking lock, combining other workers' published work
// while holding it.
func (w *simWorker) fcFlush(p *Process) {
	m := w.m
	pr := m.params
	if w.pub == nil && len(w.queue) == 0 {
		return
	}
	l := m.locks[0]
	w.acquireLock(p, l)
	entry := pr.LockGrab + pr.LockWarmup
	if w.pub != nil {
		w.csApplyHits(p, entry, w.pub)
		entry = 0
		w.spare = w.pub[:0]
		w.pub = nil
	}
	if len(w.queue) > 0 {
		w.csApplyHits(p, entry, w.queue)
		entry = 0
		w.queue = w.queue[:0]
	}
	entry = w.combineOthers(p, entry)
	w.useCPUHeld(p, entry)
	l.Release(p)
}
