package sim

import (
	"errors"
	"slices"
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

// normalize resolves unset cost fields to their defaults so partial Params
// overrides behave predictably (a zero TimeSlice, for example, would let a
// runnable worker monopolize its processor forever). A cost that is
// meaningful at zero — it switches a mechanism off — keeps an explicit zero.
func (p *Params) normalize() {
	d := DefaultParams()
	for _, f := range []struct {
		v      *Time
		def    Time
		zeroOK bool
	}{
		{&p.UserWork, d.UserWork, true},
		{&p.HashLookup, d.HashLookup, false},
		{&p.PolicyOp, d.PolicyOp, false},
		{&p.LockWarmup, d.LockWarmup, true},
		{&p.PrefetchWork, d.PrefetchWork, true},
		{&p.LockGrab, d.LockGrab, false},
		{&p.TryLock, d.TryLock, false},
		{&p.CtxSwitch, d.CtxSwitch, false},
		{&p.RefBit, d.RefBit, false},
		{&p.MissWork, d.MissWork, true},
		{&p.IOLatency, d.IOLatency, false},
		{&p.TimeSlice, d.TimeSlice, false},
		{&p.WALWork, d.WALWork, true},
	} {
		if *f.v < 0 || *f.v == 0 && !f.zeroOK {
			*f.v = f.def
		}
	}
	if p.IOParallelism <= 0 {
		p.IOParallelism = d.IOParallelism
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

	// SharedQueue switches to the single shared queue Section III-A rejects:
	// a scheduler that steals the queue under its own mutex and hands the
	// batch to the same commit round as everyone else (DESIGN.md §4). This
	// model is the implementation of record for the E7 ablation: the
	// production wrapper (internal/core) has private queues only.
	SharedQueue bool

	// FlatCombining selects the flat-combining scheduler, as core's does
	// (DESIGN.md §4, §7): at the batch threshold a worker publishes its batch
	// in a per-worker slot and tries the lock once — the winner applies every
	// published batch; losers swap to a spare buffer and continue without
	// blocking. Requires Batching; ignored with SharedQueue.
	FlatCombining bool

	// AdaptiveThreshold enables the per-worker self-tuning batch threshold
	// — an extension of the paper's Table III analysis, which shows the
	// best threshold sits strictly between "tiny batches" (premature
	// commits) and "threshold = queue size" (no TryLock attempts left):
	// down on forced commits (it should have started trying earlier), up
	// after sustained first-attempt TryLock successes (it can afford bigger
	// batches), bounded to [QueueSize/8, 3·QueueSize/4]. It is steered from
	// the commit round's one accounting site (DESIGN.md §4). This model is
	// the implementation of record for E11: the production wrapper's
	// threshold is the configured core.Config.BatchThreshold, which E11's
	// rows match, and nothing retunes it at run time.
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

// Result aggregates a simulated run's measurements.
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
	m, err := newMachine(cfg)
	if err != nil {
		return Result{}, err
	}
	return m.run(), nil
}

// newMachine validates cfg, resolves its defaults and builds the machine:
// policy, locks, processors, disk and the workers, none of them started.
func newMachine(cfg Config) (*machine, error) {
	if cfg.Workload == nil {
		return nil, errors.New("sim: Workload is required")
	}
	if cfg.Procs <= 0 {
		return nil, errors.New("sim: Procs must be positive")
	}
	if cfg.LockPartitions > 1 && (cfg.Batching || cfg.SharedQueue) {
		return nil, errors.New("sim: LockPartitions excludes Batching/SharedQueue")
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
	factory, ok := replacer.Factories()[cfg.Policy]
	if !ok {
		return nil, errors.New("sim: unknown policy " + cfg.Policy)
	}
	if cfg.LockPartitions > 1 {
		m.partitioned = NewPartitioned(cfg.Frames, cfg.LockPartitions, factory)
		m.policy = m.partitioned
		m.locks = make([]*Lock, cfg.LockPartitions)
	} else {
		m.policy = factory(cfg.Frames)
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
	// Partitioned clock still has lock-free hits; HitNeedsLock on the
	// wrapper reports conservatively, so ask the underlying algorithm.
	m.lockFreeHit = !replacer.HitNeedsLock(factory(1))

	if cfg.Prewarm && cfg.Frames >= cfg.Workload.DataPages() {
		for _, id := range cfg.Workload.Pages() {
			m.policy.Admit(id)
		}
	}
	for w := 0; w < cfg.Workers; w++ {
		m.workers = append(m.workers, &simWorker{
			m:      m,
			stream: cfg.Workload.NewStream(w, cfg.Seed),
			rng:    uint64(cfg.Seed)*0x9e3779b97f4a7c15 + uint64(w+1)*0xbf58476d1ce4e5b9,
		})
	}
	return m, nil
}

// run starts the workers, runs the kernel until they finish and folds the
// counters into a Result.
func (m *machine) run() Result {
	cfg := m.cfg
	for _, w := range m.workers {
		m.k.Spawn(w.run)
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

	res := Result{
		Procs:           cfg.Procs,
		Workers:         cfg.Workers,
		Elapsed:         time.Duration(end),
		Hits:            m.hits,
		Misses:          m.misses,
		Accesses:        m.hits + m.misses,
		Txns:            m.txns,
		Committed:       m.committed,
		Dropped:         m.dropped,
		CombinedBatches: m.combinedBatches,
		CombinedEntries: m.combinedEntries,
		HandoffSaved:    m.handoffSaved,
	}
	for _, l := range m.locks {
		res.Lock.add(l.Stats())
	}
	if m.qlock != nil {
		// The shared-queue design's own mutex is part of the replacement
		// path; fold its contention into the reported lock statistics.
		res.Lock.add(m.qlock.Stats())
	}
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
	return res
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

	policy      replacer.Policy // all calls single-threaded by construction
	partitioned *Partitioned    // non-nil in distributed-lock mode
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
	step := w.m.cfg.QueueSize / 8
	w.trialRuns = 0
	w.threshold = max(w.curThreshold()-step, step, 1)
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
	w.threshold = min(w.curThreshold()+1, max(3*w.m.cfg.QueueSize/4, 1))
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
// time: the access is queued, and at the batch threshold — every access,
// without batching — the scheduler decides how the queue reaches the policy.
func (w *simWorker) hit(p *Process, id page.PageID) {
	m := w.m
	switch {
	case m.lockFreeHit:
		// Clock family: one atomic reference-bit update, no lock, no queue.
		w.useCPU(p, m.params.RefBit)
		m.policy.Hit(id)
	case m.cfg.SharedQueue:
		w.sharedHit(p, id)
	default:
		w.queue = append(w.queue, id)
		if !m.cfg.Batching || len(w.queue) >= w.curThreshold() {
			w.atThreshold(p, m.lockFor(id))
		}
	}
}

// atThreshold is the scheduler, shaped as core.Session.atThreshold is: there
// is one way to commit (round), and the configurations differ only in what a
// worker does with a batch at the threshold when the policy lock may be busy.
// The adaptive threshold moves where the threshold is (round's accounting
// steers it); distributed locks choose which lock l is. DESIGN.md §4.
func (w *simWorker) atThreshold(p *Process, l *Lock) {
	m := w.m
	full := len(w.queue) >= m.cfg.QueueSize
	switch {
	case !m.cfg.Batching:
		// Direct (pg2Q / pgPre / distributed locks): block, on every access.
		w.round(p, l, perAccess, page.InvalidPageID)
	case !m.cfg.FlatCombining && !full:
		// The paper's protocol: one try; a busy lock leaves the batch queued
		// and the next hit tries again ...
		w.round(p, l, tryOnce, page.InvalidPageID)
	case !m.cfg.FlatCombining:
		// ... until the queue is full. (The wrapper spends one more TryLock
		// before it blocks; the model goes straight to the lock.)
		w.round(p, l, cannotWait, page.InvalidPageID)
	case w.pub == nil:
		// Flat combining, previous batch drained: publish this one (round
		// does, before its one try) and walk away — whoever holds the lock
		// will drain the slot.
		w.round(p, l, tryOnce, page.InvalidPageID)
	case full:
		// Flat combining, both buffers full: the bounded-memory fall-back.
		w.round(p, l, cannotWait, page.InvalidPageID)
	}
	// Otherwise the combiner has not reached the slot yet: keep recording.
}

// sharedHit records a hit in the single shared queue, the design Section
// III-A rejects: every append takes the queue's own mutex and transfers its
// cache lines between processors — exactly the synchronization and coherence
// cost the paper's private queues avoid.
func (w *simWorker) sharedHit(p *Process, id page.PageID) {
	m := w.m
	w.acquireLock(p, m.qlock)
	w.useCPUHeld(p, m.params.LockGrab+m.params.PolicyOp)
	m.shared = append(m.shared, id)
	n := len(m.shared)
	m.qlock.Release(p)
	switch {
	case n >= m.cfg.QueueSize:
		w.sharedRound(p, cannotWait, page.InvalidPageID)
	case n >= m.cfg.BatchThreshold:
		w.sharedRound(p, tryOnce, page.InvalidPageID)
	}
}

// sharedRound is the shared queue's scheduler. It wraps the round, it does
// not copy it: steal the whole queue into the worker's own (otherwise unused)
// buffer under the queue mutex, run the round on that batch, and put back —
// ahead of whatever was appended meanwhile — a batch the round did not apply.
// The queue mutex is never held while waiting for the policy lock.
func (w *simWorker) sharedRound(p *Process, why reason, id page.PageID) (admitted bool) {
	m := w.m
	w.acquireLock(p, m.qlock)
	w.useCPUHeld(p, m.params.LockGrab)
	w.queue = append(w.queue[:0], m.shared...)
	m.shared = m.shared[:0]
	m.qlock.Release(p)
	if len(w.queue) == 0 && why != missAdmit {
		return false // another worker stole the batch first
	}
	admitted = w.round(p, m.locks[0], why, id)
	if len(w.queue) > 0 {
		w.acquireLock(p, m.qlock)
		w.useCPUHeld(p, m.params.LockGrab)
		m.shared = slices.Insert(m.shared, 0, w.queue...)
		w.queue = w.queue[:0]
		m.qlock.Release(p)
	}
	return admitted
}

// reason is why a worker asks for the policy lock, named as core's are. It
// decides how the round acquires the lock and what it does besides applying
// hits. core's fifth reason, missSlot, is missAdmit with the frame named: the
// same one hold, in the same order, so the model needs no other.
type reason uint8

const (
	// perAccess: the unbatched hit. Lock, on every access.
	perAccess reason = iota
	// tryOnce: a batch reached the threshold. TryLock; a busy lock ends the
	// round with nothing applied and the batch where the scheduler left it.
	tryOnce
	// cannotWait: a batch with nowhere left to wait (queue full) or no time
	// left (the end-of-run flush). Lock.
	cannotWait
	// missAdmit: a miss. Lock, then admit id behind the queued hits.
	missAdmit
)

// round is the one lock-holding period of the model and the only place
// accesses reach the policy, in the order core.Session.round documents:
// prefetch, (flat combining: publish,) acquire — try or block — then the
// worker's published batch, its queue, the miss's admit, every other
// worker's published batch, release, account. A worker's unapplied accesses
// live in at most two places, always applied oldest first under one hold:
// the slot (published only when empty, so older than anything recorded
// since) and then the queue, both ahead of the miss that follows them.
//
// Each cost constant of the lock path is charged here and nowhere else.
// admitted reports that a missAdmit round made id resident.
func (w *simWorker) round(p *Process, l *Lock, why reason, id page.PageID) (admitted bool) {
	m := w.m
	pr := m.params
	first := len(w.queue) == w.curThreshold() // a batch on its first attempt

	// Prefetching (Section III-B): the read pass runs before the lock is
	// requested. A miss does not walk — the victim's lines are not known
	// before the lock is held — and pays the warm-up in full.
	prefetched := m.cfg.Prefetching && why != missAdmit
	var ver uint64
	if prefetched {
		w.useCPU(p, pr.PrefetchWork)
		ver = l.Version()
	}

	publish := why == tryOnce && m.cfg.FlatCombining
	held := true
	if why == tryOnce {
		try := pr.TryLock
		if publish {
			// One release store into the slot, then on to the spare buffer
			// (the double-buffer rotation).
			w.pub, w.queue, w.spare = w.queue, w.spare[:0], nil
			try += pr.RefBit
		}
		w.useCPU(p, try)
		held = l.TryAcquire(p)
	} else {
		w.acquireLock(p, l)
	}

	// owed is critical-section time not yet spent: the lock grab and the
	// cache warm-up — waived if no other acquisition intervened since the
	// prefetch, so the lines are still warm — go with the first batch applied.
	owed := pr.LockGrab + pr.LockWarmup
	if prefetched && l.Version() == ver+1 {
		owed = pr.LockGrab
	}
	spend := func(cs Time) {
		w.useCPUHeld(p, owed+cs)
		owed = 0
	}
	var others, othersN int64 // other workers' batches drained, and their entries
	switch {
	case !held:
	case why == missAdmit && m.policy.Contains(id):
		// Another worker loaded the page while this one was queued for a
		// processor or the lock — the simulated analogue of the buffer
		// manager's single-flight load. Reclassify as a hit, applied alone on
		// warm lines: the batch stays where it is for the next round.
		m.misses--
		m.hits++
		m.policy.Hit(id)
		w.useCPUHeld(p, pr.LockGrab+pr.PolicyOp)
	default:
		if w.pub != nil {
			spend(w.csApplyHits(w.pub))
			w.spare, w.pub = w.pub[:0], nil
		}
		if len(w.queue) > 0 || why == missAdmit {
			cs := w.csApplyHits(w.queue)
			if why == missAdmit {
				m.policy.Admit(id)
				cs += pr.MissWork + pr.PolicyOp
				admitted = true
			}
			spend(cs)
			w.queue = w.queue[:0]
		}
		if m.cfg.FlatCombining {
			// The lock is held anyway: drain the other workers' slots.
			// Probing an empty slot reads a line that last changed when a
			// combiner drained it — overwhelmingly a cache hit — so only
			// claiming a published batch (one atomic swap) is charged.
			for _, o := range m.workers {
				if o.pub == nil {
					continue
				}
				w.useCPUHeld(p, pr.RefBit)
				spend(w.csApplyHits(o.pub))
				others++
				othersN += int64(len(o.pub))
				o.spare, o.pub = o.pub[:0], nil
			}
		}
		spend(0) // nothing left to apply: the grab is still paid
	}
	if held {
		l.Release(p)
	}

	// The one accounting site, after the release.
	switch {
	case !held:
		if publish {
			// The lock holder will drain the slot; nothing to wait for. This
			// is the handoff the TryLock-or-block protocol cannot make.
			m.handoffSaved++
		}
	case why == tryOnce && first:
		w.adaptUp()
	case why == cannotWait:
		w.adaptDown()
	}
	m.combinedBatches += others
	m.combinedEntries += othersN
	return admitted
}

// csApplyHits delivers ids to the policy — the caller holds its lock — and
// returns the critical-section time that took: one policy operation per
// still-resident access. The residency check is the simulated analogue of
// the BufferTag validation.
func (w *simWorker) csApplyHits(ids []page.PageID) (cs Time) {
	m := w.m
	for _, id := range ids {
		if m.policy.Contains(id) {
			m.policy.Hit(id)
			m.committed++
			cs += m.params.PolicyOp
		} else {
			m.dropped++
		}
	}
	return cs
}

// miss runs replacement_for_page_miss: one blocking round commits the queue
// and admits the page, then the disk read.
func (w *simWorker) miss(p *Process, id page.PageID) {
	m := w.m
	var admitted bool
	if m.cfg.SharedQueue {
		admitted = w.sharedRound(p, missAdmit, id)
	} else {
		admitted = w.round(p, m.lockFor(id), missAdmit, id)
	}
	if !admitted {
		return
	}
	// The disk read happens outside the lock (as in PostgreSQL, where the
	// buffer is pinned and I/O-locked but the replacement lock is free)
	// and off the processor.
	w.releaseCPU(p)
	m.disk.Acquire(p)
	p.Sleep(m.params.IOLatency)
	m.disk.Release(p)
}

// flush commits what the worker still holds at the end of the run, its
// published batch and its queue, as core.Session.Flush does.
func (w *simWorker) flush(p *Process) {
	if len(w.queue) > 0 || w.pub != nil {
		w.round(p, w.m.locks[0], cannotWait, page.InvalidPageID)
	}
}
