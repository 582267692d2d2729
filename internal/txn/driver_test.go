package txn

import (
	"runtime"
	"testing"
	"time"

	"bpwrapper/internal/buffer"
	"bpwrapper/internal/core"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/storage"
	"bpwrapper/internal/workload"
)

func testPool(frames int, policy string, wcfg core.Config) *buffer.Pool {
	return buffer.New(buffer.Config{
		Frames:        frames,
		PolicyFactory: replacer.Factories()[policy],
		Wrapper:       wcfg,
		Device:        storage.NewMemDevice(),
	})
}

func TestRunBasic(t *testing.T) {
	w := workload.NewZipf(workload.SyntheticConfig{Pages: 200, TxnLen: 10})
	pool := testPool(200, "2q", core.Config{Batching: true})
	if err := pool.Prewarm(w.Pages()); err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Pool:          pool,
		Workload:      w,
		Workers:       4,
		TxnsPerWorker: 100,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Txns != 400 {
		t.Fatalf("txns=%d, want 400", res.Txns)
	}
	if res.Accesses != 4000 {
		t.Fatalf("accesses=%d, want 4000", res.Accesses)
	}
	if res.ThroughputTPS <= 0 {
		t.Fatal("zero throughput")
	}
	if res.Response.Count != 400 {
		t.Fatalf("response samples=%d", res.Response.Count)
	}
	if res.Response.Mean <= 0 {
		t.Fatal("zero mean response time")
	}
	if res.HitRatio != 1 {
		t.Fatalf("hit ratio %v after prewarm", res.HitRatio)
	}
}

func TestRunDuration(t *testing.T) {
	w := workload.NewZipf(workload.SyntheticConfig{Pages: 100, TxnLen: 5})
	pool := testPool(100, "lru", core.Config{})
	pool.Prewarm(w.Pages())
	start := time.Now()
	res, err := Run(Config{
		Pool:     pool,
		Workload: w,
		Workers:  2,
		Duration: 100 * time.Millisecond,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if e := time.Since(start); e < 100*time.Millisecond || e > 3*time.Second {
		t.Fatalf("run took %v for a 100ms budget", e)
	}
	if res.Txns == 0 {
		t.Fatal("no transactions completed")
	}
}

func TestRunValidation(t *testing.T) {
	w := workload.NewZipf(workload.SyntheticConfig{Pages: 10})
	pool := testPool(10, "lru", core.Config{})
	if _, err := Run(Config{Pool: pool, Workload: w}); err == nil {
		t.Fatal("missing stop condition accepted")
	}
	if _, err := Run(Config{Workload: w, Duration: time.Millisecond}); err == nil {
		t.Fatal("missing pool accepted")
	}
	if _, err := Run(Config{Pool: pool, Duration: time.Millisecond}); err == nil {
		t.Fatal("missing workload accepted")
	}
}

func TestRunWithMisses(t *testing.T) {
	// Buffer far smaller than data: the driver must survive constant
	// eviction traffic and report a believable hit ratio.
	w := workload.NewZipf(workload.SyntheticConfig{Pages: 2000, TxnLen: 10})
	pool := testPool(100, "2q", core.Config{Batching: true, Prefetching: true})
	res, err := Run(Config{
		Pool:          pool,
		Workload:      w,
		Workers:       4,
		TxnsPerWorker: 200,
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.HitRatio <= 0 || res.HitRatio >= 1 {
		t.Fatalf("hit ratio %v, want in (0,1)", res.HitRatio)
	}
	if pool.AccessStats().Misses == 0 {
		t.Fatal("no misses recorded")
	}
}

func TestRunContentionMetrics(t *testing.T) {
	// Unbatched 2Q under heavy concurrency must record lock contention;
	// that is the paper's whole premise.
	w := workload.NewZipf(workload.SyntheticConfig{Pages: 500, TxnLen: 20})
	pool := testPool(500, "2q", core.Config{})
	pool.Prewarm(w.Pages())
	res, err := Run(Config{
		Pool:          pool,
		Workload:      w,
		Workers:       8,
		TxnsPerWorker: 500,
		Seed:          5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Wrapper.Lock.Acquisitions == 0 {
		t.Fatal("no lock acquisitions on the unbatched path")
	}
	if res.LockTimePerAccess <= 0 {
		t.Fatal("no lock time recorded")
	}
}

func TestDefaultWorkers(t *testing.T) {
	w := workload.NewZipf(workload.SyntheticConfig{Pages: 50, TxnLen: 2})
	pool := testPool(50, "lru", core.Config{})
	res, err := Run(Config{
		Pool:          pool,
		Workload:      w,
		TxnsPerWorker: 10,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * runtime.GOMAXPROCS(0); res.Workers != want {
		t.Fatalf("workers=%d, want 2×GOMAXPROCS=%d", res.Workers, want)
	}
}
