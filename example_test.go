package bpwrapper_test

import (
	"fmt"
	"time"

	"bpwrapper"
)

// Example is the quick start: a buffer pool whose replacement algorithm
// (2Q) is made lock-contention free by BP-Wrapper, one worker's session
// reading a skewed set of pages, and the lock statistics. Each worker
// goroutine owns one Session, the private FIFO queue of the paper; its
// hits reach the policy in batches, so the lock is taken once per many
// accesses instead of once per access.
func Example() {
	pool := bpwrapper.NewPool(bpwrapper.PoolConfig{
		Frames:        1024,
		PolicyFactory: bpwrapper.PolicyFactories()["2q"],
		// Both techniques, with the paper's queue of 64 and threshold of 32.
		Wrapper: bpwrapper.WrapperConfig{Batching: true, Prefetching: true},
		Device:  bpwrapper.NewMemDevice(),
	})

	sess := pool.NewSession()
	for i := 0; i < 20000; i++ {
		block := uint64(i*3) % 512 % uint64(1+i%97) // low blocks are hot
		ref, err := pool.Get(sess, bpwrapper.NewPageID(1, block))
		if err != nil {
			panic(err)
		}
		_ = ref.Data()[0] // use the page while pinned
		ref.Release()
	}
	sess.Flush() // commit the queued hits

	st := pool.Stats()
	accesses := st.Hits + st.Misses
	fmt.Println("accesses:", accesses, "misses:", st.Misses)
	fmt.Println("lock acquisitions:", st.Wrapper.Lock.Acquisitions)
	fmt.Printf("accesses per acquisition: %.1f\n", float64(accesses)/float64(st.Wrapper.Lock.Acquisitions))
	// Output:
	// accesses: 20000 misses: 97
	// lock acquisitions: 718
	// accesses per acquisition: 27.9
}

// ExampleNewWrapper demonstrates the standalone BP-Wrapper core: hits are
// queued in the session's private FIFO and committed in batches, so 96
// accesses cost only a handful of lock acquisitions.
func ExampleNewWrapper() {
	policy := bpwrapper.NewTwoQ(64)
	w := bpwrapper.NewWrapper(policy, bpwrapper.WrapperConfig{
		Batching:       true,
		QueueSize:      32,
		BatchThreshold: 16,
	})

	sess := w.NewSession()
	id := bpwrapper.NewPageID(1, 7)
	sess.Miss(id, bpwrapper.BufferTag{Page: id})
	for i := 0; i < 95; i++ {
		sess.Hit(id, bpwrapper.BufferTag{Page: id})
	}
	sess.Flush()

	st := w.Stats()
	fmt.Println("committed hits:", st.Committed)
	fmt.Println("lock acquisitions:", st.Lock.Acquisitions)
	// Output:
	// committed hits: 95
	// lock acquisitions: 7
}

// ExampleReplayTrace compares hit ratios of two algorithms on the same
// recorded trace — the methodology behind the paper's Figure 8 hit-ratio
// panels.
func ExampleReplayTrace() {
	wl := bpwrapper.NewZipf(bpwrapper.SyntheticConfig{Pages: 4096, TxnLen: 16})
	tr := bpwrapper.RecordTrace(wl, 4, 250, 42)

	for _, name := range []string{"clock", "lirs"} {
		p, _ := bpwrapper.NewPolicy(name, 256)
		res := bpwrapper.ReplayTrace(p, tr)
		fmt.Printf("%s hit ratio above 50%%: %v\n", name, res.HitRatio() > 0.5)
	}
	// Output:
	// clock hit ratio above 50%: true
	// lirs hit ratio above 50%: true
}

// ExampleNewPolicy lists the available replacement algorithms.
func ExampleNewPolicy() {
	for _, name := range bpwrapper.PolicyNames() {
		p, ok := bpwrapper.NewPolicy(name, 16)
		if !ok || p.Cap() != 16 {
			panic(name)
		}
	}
	fmt.Println(len(bpwrapper.PolicyNames()), "algorithms")
	// Output:
	// 13 algorithms
}

// ExampleNewRetryDevice composes the production fault-tolerance stack —
// retries over checksummed I/O over a (here deliberately flaky) device —
// and shows a transient write fault being healed and counted.
func ExampleNewRetryDevice() {
	retries := 0
	flaky := bpwrapper.NewFaultDevice(bpwrapper.NewMemDevice(), bpwrapper.FaultConfig{})
	dev := bpwrapper.NewRetryDevice(bpwrapper.NewChecksumDevice(flaky), bpwrapper.RetryConfig{
		MaxAttempts: 4,
		Sleep:       func(time.Duration) { retries++ }, // keep the example instant
	})

	var p bpwrapper.Page
	p.Stamp(bpwrapper.NewPageID(1, 7))

	flaky.FailNextWrites(2) // two transient faults, then the device recovers
	if err := dev.WritePage(&p); err != nil {
		panic(err)
	}

	var back bpwrapper.Page
	if err := dev.ReadPage(p.ID, &back); err != nil {
		panic(err)
	}
	_, writeErrors, _ := flaky.Injected()
	fmt.Println("intact:", back.Data == p.Data)
	fmt.Println("write errors:", writeErrors, "retries:", retries)
	// Output:
	// intact: true
	// write errors: 2 retries: 2
}

// ExampleRunFleet runs the paper's DBT-2 scenario on the real stack: a
// TPC-C-like order-entry workload through a pool far smaller than the
// database, the Figure 8 regime where the hit ratio decides throughput.
// One worker keeps the counts exact; bpload runs the same fleet with many.
func ExampleRunFleet() {
	wl, err := bpwrapper.WorkloadByName("tpcc")
	if err != nil {
		panic(err)
	}
	fmt.Printf("%-6s %7s %10s\n", "policy", "buffer", "hit ratio")
	for _, name := range []string{"clock", "2q", "lirs"} {
		for _, frac := range []float64{0.05, 0.25} {
			pool := bpwrapper.NewPool(bpwrapper.PoolConfig{
				Frames:        int(float64(wl.DataPages()) * frac),
				PolicyFactory: bpwrapper.PolicyFactories()[name],
				Wrapper:       bpwrapper.WrapperConfig{Batching: true, Prefetching: true},
				Device:        bpwrapper.NewMemDevice(),
			})
			res, err := bpwrapper.RunFleet(bpwrapper.FleetConfig{
				Pool:          pool,
				Workload:      wl,
				Workers:       1,
				TxnsPerWorker: 2000,
				Seed:          42,
			})
			if err != nil || res.Counters.Errors > 0 {
				panic(fmt.Sprint(name, err, res.Counters.Errors))
			}
			fmt.Printf("%-6s %6.0f%% %9.2f%%\n", name, 100*frac, 100*pool.Stats().HitRatio)
		}
	}
	fmt.Println("lirs leads at 5%; at 25% 2q trails clock and lirs.")
	fmt.Println("Which policy pays depends on the workload: the wrapper takes any.")
	// Output:
	// policy  buffer  hit ratio
	// clock       5%     93.46%
	// clock      25%     97.03%
	// 2q          5%     93.65%
	// 2q         25%     96.69%
	// lirs        5%     94.46%
	// lirs       25%     97.03%
	// lirs leads at 5%; at 25% 2q trails clock and lirs.
	// Which policy pays depends on the workload: the wrapper takes any.
}
