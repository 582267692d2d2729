package bpwrapper_test

import (
	"fmt"
	"time"

	"bpwrapper"
)

// Example shows the minimal pool setup: an advanced replacement algorithm
// wrapped by BP-Wrapper, a page access, and the lock statistics.
func Example() {
	pool := bpwrapper.NewPool(bpwrapper.PoolConfig{
		Frames:        128,
		PolicyFactory: bpwrapper.PolicyFactories()["2q"],
		Wrapper:       bpwrapper.WrapperConfig{Batching: true, Prefetching: true},
		Device:        bpwrapper.NewMemDevice(),
	})

	sess := pool.NewSession()
	ref, err := pool.Get(sess, bpwrapper.NewPageID(1, 42))
	if err != nil {
		panic(err)
	}
	fmt.Println("page bytes:", len(ref.Data()))
	ref.Release()
	sess.Flush()

	st := pool.Stats()
	fmt.Println("accesses:", st.Hits+st.Misses, "misses:", st.Misses)
	// Output:
	// page bytes: 8192
	// accesses: 1 misses: 1
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
	flaky := bpwrapper.NewFaultDevice(bpwrapper.NewMemDevice(), bpwrapper.FaultConfig{})
	dev := bpwrapper.NewRetryDevice(bpwrapper.NewChecksumDevice(flaky), bpwrapper.RetryConfig{
		MaxAttempts: 4,
		Sleep:       func(time.Duration) {}, // keep the example instant
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
	st := dev.Stats()
	fmt.Println("intact:", back.Data == p.Data)
	fmt.Println("write errors:", st.WriteErrors, "retries:", st.Retries)
	// Output:
	// intact: true
	// write errors: 2 retries: 2
}
