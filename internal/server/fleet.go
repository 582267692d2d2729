package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bpwrapper/internal/buffer"
	"bpwrapper/internal/metrics"
	"bpwrapper/internal/page"
	"bpwrapper/internal/workload"
)

// FleetConfig drives a fleet of workers against one buffer pool, each
// replaying its deterministic workload stream, optionally batching
// accesses into pipelined frames. The transport is the wire (Addr) or
// the process (Pool); exactly one must be set.
type FleetConfig struct {
	// Addr is a bpserver address: each worker dials its own connection.
	Addr string

	// Pool is an in-process pool: each worker opens its own session,
	// flushed when the worker exits, and runs each access as pin, touch
	// one byte (a write adds 1 to it and marks the page dirty), release.
	Pool *buffer.Pool

	Workload workload.Workload
	Workers  int

	// Duration bounds the run in wall time; TxnsPerWorker in work. At
	// least one must be set; whichever ends first wins.
	Duration      time.Duration
	TxnsPerWorker int

	Seed int64

	// PipelineDepth batches up to this many page accesses into one
	// pipelined Do burst (one write, one flush, one response batch).
	// Zero or one means synchronous request/response. In process a burst
	// is only a run of accesses, so the depth changes nothing.
	PipelineDepth int

	// TraceEvery, when positive, attaches a deterministic trace ID (via
	// the protocol's trace-context extension) to every TraceEvery-th
	// burst each worker sends — client-side head sampling, so a fleet run
	// seeds the server's tracer with end-to-end traces without flooding
	// it. Zero disables wire tracing. Ignored with Pool, which samples
	// through its own trace configuration.
	TraceEvery int

	// Live, when non-nil, receives periodic counter publications for a
	// progress ticker. It is NOT the result: a worker publishes every
	// livePublishEvery transactions, so Live lags and may miss the tail
	// of a fast run. FleetResult folds the per-worker counters exactly.
	Live *FleetLive
}

// livePublishEvery is how many transactions a worker completes between
// publications into FleetConfig.Live.
const livePublishEvery = 32

// FleetCounters is one worker's (or the folded) operation tally. Plain
// ints: each instance is owned by one goroutine until the final fold.
type FleetCounters struct {
	Txns       int64
	Reads      int64 // reads served
	Writes     int64 // writes applied
	Overloaded int64 // shed by admission control (typed OVERLOADED)
	Draining   int64 // refused past the drain grace
	Errors     int64 // transport or unexpected errors
}

// add folds o into c.
func (c *FleetCounters) add(o FleetCounters) {
	c.Txns += o.Txns
	c.Reads += o.Reads
	c.Writes += o.Writes
	c.Overloaded += o.Overloaded
	c.Draining += o.Draining
	c.Errors += o.Errors
}

// count tallies one access's outcome: a read or a write served, the typed
// shed, or any other error.
func (c *FleetCounters) count(write bool, err error) {
	switch {
	case err == nil && write:
		c.Writes++
	case err == nil:
		c.Reads++
	case errors.Is(err, buffer.ErrOverloaded):
		c.Overloaded++
	default:
		c.Errors++
	}
}

// FleetLive is the shared live view workers publish into for progress
// tickers. All fields are atomics; readers see a consistent-enough lagging
// snapshot, never the exact totals (those come from the final fold).
type FleetLive struct {
	Txns       atomic.Int64
	Reads      atomic.Int64
	Writes     atomic.Int64
	Overloaded atomic.Int64
	Errors     atomic.Int64
}

// publish adds the delta since the last publication to the live view.
func (l *FleetLive) publish(cur, last FleetCounters) {
	l.Txns.Add(cur.Txns - last.Txns)
	l.Reads.Add(cur.Reads - last.Reads)
	l.Writes.Add(cur.Writes - last.Writes)
	l.Overloaded.Add(cur.Overloaded - last.Overloaded)
	l.Errors.Add(cur.Errors - last.Errors)
}

// FleetResult is a completed fleet run. Counters is folded from
// PerWorker after every worker has joined — the summary can never drop a
// partial publication interval, however fast the run exited.
type FleetResult struct {
	Counters  FleetCounters
	PerWorker []FleetCounters
	Elapsed   time.Duration
	Latency   *metrics.Histogram // per-transaction latency, merged
}

// RunFleet executes the fleet and blocks until every worker has joined
// and its counters are folded. Per-access errors are counted, not fatal.
// Over the wire, workers stop early — without error — when the server
// sheds into DRAINING or hangs up mid-run (that is the drain contract
// working), so a mid-run server drain never turns into a test failure
// here. The returned error is reserved for setup problems (bad config,
// nobody could connect).
func RunFleet(cfg FleetConfig) (*FleetResult, error) {
	if cfg.Workload == nil {
		return nil, errors.New("fleet: Workload is required")
	}
	if (cfg.Addr == "") == (cfg.Pool == nil) {
		return nil, errors.New("fleet: set exactly one of Addr and Pool")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Duration <= 0 && cfg.TxnsPerWorker <= 0 {
		return nil, errors.New("fleet: set Duration or TxnsPerWorker")
	}
	depth := cfg.PipelineDepth
	if depth <= 0 {
		depth = 1
	}

	// Connect everybody up front so a dead address fails fast instead of
	// producing a zero-work "success".
	links := make([]fleetLink, cfg.Workers)
	for w := range links {
		if cfg.Pool != nil {
			links[w] = &poolLink{pool: cfg.Pool, sess: cfg.Pool.NewSession()}
			continue
		}
		c, err := Dial(cfg.Addr)
		if err != nil {
			for _, l := range links[:w] {
				l.close()
			}
			return nil, fmt.Errorf("fleet: worker %d: %w", w, err)
		}
		links[w] = &wireLink{c: c, worker: w, traceEvery: cfg.TraceEvery,
			ops: make([]Op, 0, depth), pages: make([]page.Page, depth)}
	}

	var (
		wg        sync.WaitGroup
		perWorker = make([]FleetCounters, cfg.Workers)
		hists     = make([]*metrics.Histogram, cfg.Workers)
		stop      = make(chan struct{})
	)
	if cfg.Duration > 0 {
		t := time.AfterFunc(cfg.Duration, func() { close(stop) })
		defer t.Stop()
	}
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer links[w].close()
			hists[w] = metrics.NewLatencyHistogram()
			runFleetWorker(cfg, links[w], w, depth, stop, &perWorker[w], hists[w])
		}(w)
	}
	wg.Wait()

	// The fold: totals come from the per-worker counters, summed only
	// after the owning goroutines have exited. Live publications are a
	// lagging view and play no part here.
	res := &FleetResult{
		PerWorker: perWorker,
		Elapsed:   time.Since(start),
		Latency:   metrics.NewLatencyHistogram(),
	}
	for w := range perWorker {
		res.Counters.add(perWorker[w])
		res.Latency.Merge(hists[w])
	}
	return res, nil
}

// runFleetWorker replays worker w's stream, depth accesses a burst, until
// its transaction budget, the duration stop, or its link ends it.
func runFleetWorker(cfg FleetConfig, l fleetLink, w, depth int, stop <-chan struct{}, out *FleetCounters, lat *metrics.Histogram) {
	stream := cfg.Workload.NewStream(w, cfg.Seed)
	var (
		cur, last FleetCounters
		accBuf    []workload.Access
	)
	defer func() {
		// Publish-then-own: the final counters land in *out regardless of
		// how the run ended; RunFleet folds them after the join.
		if cfg.Live != nil {
			cfg.Live.publish(cur, last)
		}
		*out = cur
	}()
	for txn := 0; cfg.TxnsPerWorker <= 0 || txn < cfg.TxnsPerWorker; txn++ {
		select {
		case <-stop:
			return
		default:
		}
		accBuf = stream.NextTxn(accBuf[:0])
		t0 := time.Now()
		for rest := accBuf; len(rest) > 0; {
			n := min(depth, len(rest))
			if !l.do(rest[:n], &cur) {
				return
			}
			rest = rest[n:]
		}
		lat.Record(time.Since(t0))
		cur.Txns++
		if cfg.Live != nil && cur.Txns%livePublishEvery == 0 {
			cfg.Live.publish(cur, last)
			last = cur
		}
	}
}

// fleetLink is one worker's transport.
type fleetLink interface {
	// do runs one burst of accesses and counts each into cur. It reports
	// false when the worker must stop.
	do(accs []workload.Access, cur *FleetCounters) bool
	close()
}

// wireLink is the remote transport: one client connection to a bpserver.
type wireLink struct {
	c          *Client
	worker     int
	traceEvery int
	burst      uint64
	ops        []Op
	// One page image per pipeline slot: every PUT queued in a batch
	// owns its bytes until the batch is encoded (a single shared
	// buffer would make all PUTs in one burst carry the last stamp).
	pages []page.Page
}

func (l *wireLink) do(accs []workload.Access, cur *FleetCounters) bool {
	l.burst++
	if l.traceEvery > 0 && l.burst%uint64(l.traceEvery) == 0 {
		// Deterministic per-worker trace IDs: reruns produce the same
		// identities, so bench ledgers can be compared across runs.
		l.c.SetTraceID(uint64(l.worker+1)<<32 | l.burst)
	} else {
		l.c.SetTraceID(0)
	}
	l.ops = l.ops[:0]
	for i, a := range accs {
		op := Op{Code: OpGet, Page: a.Page}
		if a.Write {
			pg := &l.pages[i]
			pg.Stamp(a.Page)
			op = Op{Code: OpPut, Page: a.Page, Data: pg.Data[:]}
		}
		l.ops = append(l.ops, op)
	}
	results, err := l.c.Do(l.ops)
	if err != nil {
		// Transport cut: a drain poke or vanished server. Count it once
		// and end the worker; the fold still sees everything acknowledged
		// before the cut.
		cur.Errors++
		return false
	}
	for i := range results {
		if errors.Is(results[i].Err, ErrDraining) {
			cur.Draining++
		} else {
			cur.count(accs[i].Write, results[i].Err)
		}
	}
	// A drained server refuses everything from here on; stop cleanly.
	return cur.Draining == 0
}

func (l *wireLink) close() { l.c.Close() }

// poolLink is the in-process transport: one session of the pool.
type poolLink struct {
	pool *buffer.Pool
	sess *buffer.Session
}

func (l *poolLink) do(accs []workload.Access, cur *FleetCounters) bool {
	for _, a := range accs {
		cur.count(a.Write, l.access(a))
	}
	return true
}

// access pins the page, touches one byte of it — a write adds 1 and marks
// the page dirty — and releases it, so the pin holds a real content access.
func (l *poolLink) access(a workload.Access) error {
	var ref *buffer.PageRef
	var err error
	if a.Write {
		ref, err = l.pool.GetWrite(l.sess, a.Page)
	} else {
		ref, err = l.pool.Get(l.sess, a.Page)
	}
	if err != nil {
		return err
	}
	data := ref.Data()
	i := int(a.Page) % len(data)
	if a.Write {
		data[i]++
		ref.MarkDirty()
	} else {
		touchSink.Store(uint32(data[i]))
	}
	ref.Release()
	return nil
}

func (l *poolLink) close() { l.sess.Flush() }

// touchSink swallows touched bytes so the compiler keeps the reads.
var touchSink atomic.Uint32
