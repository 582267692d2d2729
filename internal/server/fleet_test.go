package server

import (
	"testing"
	"time"

	"bpwrapper/internal/buffer"
	"bpwrapper/internal/core"
	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/storage"
	"bpwrapper/internal/workload"
)

// countingWorkload is a tiny deterministic workload: every transaction
// touches txnLen pages of a 64-page table, the last access of each
// transaction a write, so a run's exact operation totals are computable
// in closed form — which is what lets the fold test pin exact numbers.
type countingWorkload struct{ txnLen int }

func (w countingWorkload) Name() string   { return "counting" }
func (w countingWorkload) DataPages() int { return 64 }
func (w countingWorkload) Pages() []page.PageID {
	ids := make([]page.PageID, 64)
	for i := range ids {
		ids[i] = page.NewPageID(1, uint64(i))
	}
	return ids
}

func (w countingWorkload) NewStream(worker int, seed int64) workload.Stream {
	return &countingStream{w: w, worker: worker}
}

type countingStream struct {
	w      countingWorkload
	worker int
	n      uint64
}

func (s *countingStream) NextTxn(buf []workload.Access) []workload.Access {
	for i := 0; i < s.w.txnLen; i++ {
		buf = append(buf, workload.Access{
			Page:  page.NewPageID(1, (s.n+uint64(i)+uint64(s.worker)*7)%64),
			Write: i == s.w.txnLen-1,
		})
		s.n++
	}
	return buf
}

// TestFleetFoldRegression is the counter-fold regression: a run whose
// per-worker transaction count (3) is far below the live publication
// interval (32) must still report exact totals in FleetResult — the
// summary comes from the post-join fold of per-worker counters, never
// from the lagging live view a fast exit leaves partial.
func TestFleetFoldRegression(t *testing.T) {
	srv, _, done := newTestServer(t, 128, Config{})
	defer done()

	const (
		workers = 4
		txns    = 3 // < livePublishEvery: the live view never fires
		txnLen  = 5
	)
	live := &FleetLive{}
	res, err := RunFleet(FleetConfig{
		Addr:          srv.Addr(),
		Workload:      countingWorkload{txnLen: txnLen},
		Workers:       workers,
		TxnsPerWorker: txns,
		Seed:          1,
		PipelineDepth: 4,
		Live:          live,
	})
	if err != nil {
		t.Fatalf("RunFleet: %v", err)
	}

	wantTxns := int64(workers * txns)
	wantWrites := int64(workers * txns) // one write per txn
	wantReads := int64(workers * txns * (txnLen - 1))
	c := res.Counters
	if c.Txns != wantTxns || c.Writes != wantWrites || c.Reads != wantReads {
		t.Fatalf("folded counters txns=%d reads=%d writes=%d, want %d/%d/%d",
			c.Txns, c.Reads, c.Writes, wantTxns, wantReads, wantWrites)
	}
	if c.Errors != 0 || c.Overloaded != 0 || c.Draining != 0 {
		t.Fatalf("unexpected failures in counters: %+v", c)
	}
	if len(res.PerWorker) != workers {
		t.Fatalf("PerWorker has %d entries, want %d", len(res.PerWorker), workers)
	}
	var sum FleetCounters
	for _, pw := range res.PerWorker {
		if pw.Txns != txns {
			t.Fatalf("per-worker txns %d, want %d", pw.Txns, txns)
		}
		sum.add(pw)
	}
	if sum != c {
		t.Fatalf("folded counters %+v != per-worker sum %+v", c, sum)
	}
	// The workers' deferred publish also lands the tail in the live view
	// (it lags during the run but must converge at exit).
	if got := live.Txns.Load(); got != wantTxns {
		t.Fatalf("live view txns %d after join, want %d", got, wantTxns)
	}
	if res.Latency.Count() == 0 {
		t.Fatal("latency histogram empty after a completed run")
	}
}

// TestFleetAgainstDrain verifies a mid-run graceful drain ends the fleet
// cleanly: workers stop on DRAINING/transport cut without reporting run
// failure, and everything acknowledged OK before the drain is counted.
func TestFleetAgainstDrain(t *testing.T) {
	srv, _, done := newTestServer(t, 128, Config{DrainGrace: 20 * time.Millisecond})
	defer done()

	fleetDone := make(chan *FleetResult, 1)
	go func() {
		res, err := RunFleet(FleetConfig{
			Addr:          srv.Addr(),
			Workload:      countingWorkload{txnLen: 4},
			Workers:       4,
			Duration:      5 * time.Second, // the drain, not the clock, ends it
			Seed:          2,
			PipelineDepth: 8,
		})
		if err != nil {
			t.Errorf("RunFleet: %v", err)
		}
		fleetDone <- res
	}()

	time.Sleep(50 * time.Millisecond) // let traffic flow
	if err := srv.Drain(10 * time.Second); err != nil {
		t.Fatalf("Drain under load: %v", err)
	}
	res := <-fleetDone
	if res == nil {
		t.Fatal("fleet returned no result")
	}
	if res.Counters.Txns == 0 {
		t.Fatal("fleet did no work before the drain")
	}
	if res.Elapsed >= 5*time.Second {
		t.Fatalf("fleet ran out the clock (%v); the drain should have ended it", res.Elapsed)
	}
}

// testFleetPool is an in-process pool for the local transport's tests.
func testFleetPool(frames int) *buffer.Pool {
	return buffer.New(buffer.Config{
		Frames:        frames,
		PolicyFactory: replacer.Factories()["2q"],
		Wrapper:       core.Config{Batching: true, Prefetching: true},
		Device:        storage.NewMemDevice(),
	})
}

// TestFleetLocalBudget: on the in-process transport a work-bounded run
// executes exactly Workers × TxnsPerWorker transactions of the workload's
// length, every access reaches the pool, and a prewarmed pool that holds
// the whole table serves every one of them as a hit.
func TestFleetLocalBudget(t *testing.T) {
	const (
		workers = 4
		txns    = 100
		txnLen  = 10
	)
	wl := countingWorkload{txnLen: txnLen}
	pool := testFleetPool(wl.DataPages())
	defer pool.Close()
	if err := pool.Prewarm(wl.Pages()); err != nil {
		t.Fatal(err)
	}
	before := pool.AccessStats()
	res, err := RunFleet(FleetConfig{
		Pool:          pool,
		Workload:      wl,
		Workers:       workers,
		TxnsPerWorker: txns,
		Seed:          1,
	})
	if err != nil {
		t.Fatalf("RunFleet: %v", err)
	}
	c := res.Counters
	if c.Txns != workers*txns {
		t.Fatalf("txns=%d, want %d", c.Txns, workers*txns)
	}
	if c.Reads+c.Writes != workers*txns*txnLen || c.Writes != workers*txns {
		t.Fatalf("reads=%d writes=%d, want %d accesses, one write a txn", c.Reads, c.Writes, workers*txns*txnLen)
	}
	if c.Errors != 0 || c.Overloaded != 0 || c.Draining != 0 {
		t.Fatalf("unexpected failures in counters: %+v", c)
	}
	if got := res.Latency.Count(); got != workers*txns {
		t.Fatalf("latency samples=%d, want one a txn (%d)", got, workers*txns)
	}
	// The workers' sessions are flushed at exit, so the pool's counters
	// are exact here.
	acc := pool.AccessStats()
	hits, misses := acc.Hits-before.Hits, acc.Misses-before.Misses
	if hits+misses != workers*txns*txnLen {
		t.Fatalf("pool saw %d accesses, want %d", hits+misses, workers*txns*txnLen)
	}
	if misses != 0 {
		t.Fatalf("%d misses after prewarm", misses)
	}
	if st := pool.Stats(); st.Dirty == 0 {
		t.Fatal("writes left no dirty page")
	}
}

// TestFleetLocalDuration: a time-bounded in-process run stops on the clock.
func TestFleetLocalDuration(t *testing.T) {
	wl := workload.NewZipf(workload.SyntheticConfig{Pages: 100, TxnLen: 5})
	pool := testFleetPool(100)
	defer pool.Close()
	start := time.Now()
	res, err := RunFleet(FleetConfig{
		Pool:     pool,
		Workload: wl,
		Workers:  2,
		Duration: 100 * time.Millisecond,
		Seed:     1,
	})
	if err != nil {
		t.Fatalf("RunFleet: %v", err)
	}
	if e := time.Since(start); e < 100*time.Millisecond || e > 3*time.Second {
		t.Fatalf("run took %v for a 100ms budget", e)
	}
	if res.Counters.Txns == 0 {
		t.Fatal("no transactions completed")
	}
}

// TestFleetLocalMisses: a pool far smaller than the table keeps evicting,
// and the fleet runs through it without an error.
func TestFleetLocalMisses(t *testing.T) {
	wl := workload.NewZipf(workload.SyntheticConfig{Pages: 2000, TxnLen: 10})
	pool := testFleetPool(100)
	defer pool.Close()
	res, err := RunFleet(FleetConfig{
		Pool:          pool,
		Workload:      wl,
		Workers:       4,
		TxnsPerWorker: 200,
		Seed:          3,
	})
	if err != nil {
		t.Fatalf("RunFleet: %v", err)
	}
	if c := res.Counters; c.Txns != 800 || c.Errors != 0 || c.Overloaded != 0 {
		t.Fatalf("counters %+v, want 800 txns and no failures", c)
	}
	acc := pool.AccessStats()
	if acc.Misses == 0 {
		t.Fatal("no misses recorded")
	}
	if hr := acc.HitRatio(); hr <= 0 || hr >= 1 {
		t.Fatalf("hit ratio %v, want in (0,1)", hr)
	}
}

// TestFleetConfigValidation: a run needs a workload, a stop rule and
// exactly one transport.
func TestFleetConfigValidation(t *testing.T) {
	wl := countingWorkload{txnLen: 1}
	pool := testFleetPool(8)
	defer pool.Close()
	for name, cfg := range map[string]FleetConfig{
		"no workload":     {Pool: pool, Duration: time.Millisecond},
		"no stop rule":    {Pool: pool, Workload: wl},
		"no transport":    {Workload: wl, Duration: time.Millisecond},
		"both transports": {Addr: "127.0.0.1:1", Pool: pool, Workload: wl, Duration: time.Millisecond},
	} {
		if _, err := RunFleet(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
