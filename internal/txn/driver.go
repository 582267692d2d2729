// Package txn drives a buffer pool with concurrent transaction-processing
// backends, reproducing the measurement methodology of the BP-Wrapper
// paper's evaluation (Section IV): N worker goroutines (the PostgreSQL
// back-end processes) execute workload transactions against the pool while
// the process's GOMAXPROCS bounds true parallelism (the CPU-affinity masks
// of the paper), and throughput, response time, hit ratio, and lock
// contention are collected.
package txn

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bpwrapper/internal/buffer"
	"bpwrapper/internal/core"
	"bpwrapper/internal/metrics"
	"bpwrapper/internal/workload"
)

// Config describes one measured run.
type Config struct {
	// Pool is the buffer pool under test. Required.
	Pool *buffer.Pool

	// Workload supplies per-worker access streams. Required.
	Workload workload.Workload

	// Workers is the number of backend goroutines. The paper keeps more
	// active backends than processors so the system is overcommitted;
	// zero means 2×GOMAXPROCS.
	Workers int

	// Duration stops the run after this much wall time, if positive.
	Duration time.Duration

	// TxnsPerWorker stops each worker after that many transactions, if
	// positive. At least one of Duration and TxnsPerWorker must be set.
	TxnsPerWorker int64

	// Seed makes the workload streams deterministic.
	Seed int64
}

// Result aggregates a run's measurements.
type Result struct {
	Workers int

	Txns     int64
	Accesses int64
	Elapsed  time.Duration

	// ThroughputTPS is committed transactions per second.
	ThroughputTPS float64

	// Response summarizes per-transaction latency.
	Response metrics.Summary

	// HitRatio is the pool's buffer hit ratio during the run.
	HitRatio float64

	// Wrapper is the BP-Wrapper core's activity snapshot (lock statistics,
	// batching counters).
	Wrapper core.Stats

	// ContentionPerM is the paper's reporting metric: blocking lock
	// acquisitions per million page accesses.
	ContentionPerM float64

	// LockTimePerAccess is Figure 2's metric: (lock wait + hold time)
	// divided by page accesses.
	LockTimePerAccess time.Duration
}

// Run executes one measured run and returns its Result. The pool's
// statistics are reset at the start, so a caller that wants a warm buffer
// should Prewarm first.
func Run(cfg Config) (Result, error) {
	if cfg.Pool == nil || cfg.Workload == nil {
		return Result{}, errors.New("txn: Pool and Workload are required")
	}
	if cfg.Duration <= 0 && cfg.TxnsPerWorker <= 0 {
		return Result{}, errors.New("txn: set Duration or TxnsPerWorker")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 2 * runtime.GOMAXPROCS(0)
	}

	cfg.Pool.ResetStats()

	var (
		stop     atomic.Bool
		txns     atomic.Int64
		wg       sync.WaitGroup
		workErrs = make([]error, workers)
		hists    = make([]*metrics.Histogram, workers)
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		hists[w] = metrics.NewLatencyHistogram()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			workErrs[w] = runWorker(&cfg, w, &stop, &txns, hists[w])
		}(w)
	}
	if cfg.Duration > 0 {
		timer := time.AfterFunc(cfg.Duration, func() { stop.Store(true) })
		defer timer.Stop()
	}
	wg.Wait()
	elapsed := time.Since(start)

	for w, err := range workErrs {
		if err != nil {
			return Result{}, fmt.Errorf("txn: worker %d: %w", w, err)
		}
	}

	resp := metrics.NewLatencyHistogram()
	for _, h := range hists {
		resp.Merge(h)
	}
	acc, ws := cfg.Pool.AccessStats(), cfg.Pool.WrapperStats()
	res := Result{
		Workers:        workers,
		Txns:           txns.Load(),
		Accesses:       acc.Accesses(),
		Elapsed:        elapsed,
		ThroughputTPS:  metrics.Throughput(txns.Load(), elapsed),
		Response:       resp.Summarize(),
		HitRatio:       acc.HitRatio(),
		Wrapper:        ws,
		ContentionPerM: metrics.ContentionPerMillion(ws.Lock.Contentions, acc.Accesses()),
	}
	if res.Accesses > 0 {
		res.LockTimePerAccess = (ws.Lock.WaitTime + ws.Lock.HoldTime) / time.Duration(res.Accesses)
	}
	return res, nil
}

// runWorker is one backend: it executes transactions from its private
// stream until told to stop, recording per-transaction latency.
func runWorker(cfg *Config, w int, stop *atomic.Bool, txns *atomic.Int64, hist *metrics.Histogram) error {
	sess := cfg.Pool.NewSession()
	defer sess.Flush()
	stream := cfg.Workload.NewStream(w, cfg.Seed)
	buf := make([]workload.Access, 0, 256)
	var done int64
	for !stop.Load() {
		if cfg.TxnsPerWorker > 0 && done >= cfg.TxnsPerWorker {
			return nil
		}
		buf = stream.NextTxn(buf[:0])
		begin := time.Now()
		if err := execute(cfg, sess, buf); err != nil {
			return err
		}
		hist.Record(time.Since(begin))
		done++
		txns.Add(1)
	}
	return nil
}

// execute performs one transaction's page accesses: pin, touch, release.
// The touch reads (and for a write access, writes) one byte of the pinned
// page, so the pin holds a realistic content access.
func execute(cfg *Config, sess *buffer.Session, accesses []workload.Access) error {
	for _, a := range accesses {
		var ref *buffer.PageRef
		var err error
		if a.Write {
			ref, err = cfg.Pool.GetWrite(sess, a.Page)
		} else {
			ref, err = cfg.Pool.Get(sess, a.Page)
		}
		if err != nil {
			return err
		}
		data := ref.Data()
		b := data[int(a.Page)%len(data)]
		if a.Write {
			data[int(a.Page)%len(data)] = b + 1
			ref.MarkDirty()
		} else {
			sink.Store(uint32(b))
		}
		ref.Release()
	}
	return nil
}

// sink swallows touched bytes so the compiler keeps the reads.
var sink atomic.Uint32
