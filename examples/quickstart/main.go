// Quickstart: build a buffer pool with an advanced replacement algorithm
// (2Q) made lock-contention free by BP-Wrapper, serve some page requests
// from concurrent workers, and inspect the lock statistics.
package main

import (
	"fmt"
	"log"
	"sync"

	"bpwrapper"
)

func main() {
	const frames = 1024

	// An advanced replacement algorithm. Its data structure needs a global
	// lock — the contention BP-Wrapper exists to remove.
	factory, ok := bpwrapper.PolicyFactories()["2q"]
	if !ok {
		log.Fatal("unknown policy")
	}

	pool := bpwrapper.NewPool(bpwrapper.PoolConfig{
		Frames:        frames,
		PolicyFactory: factory,
		// Both BP-Wrapper techniques, with the paper's queue tuning
		// (size 64, threshold 32).
		Wrapper: bpwrapper.WrapperConfig{Batching: true, Prefetching: true},
		Device:  bpwrapper.NewMemDevice(),
	})

	// Eight workers hammer a skewed set of pages. Each worker owns one
	// Session — the private FIFO queue of the paper.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := pool.NewSession()
			defer sess.Flush() // commit any queued hit records
			for i := 0; i < 20000; i++ {
				// Zipf-ish skew: low-numbered blocks are hot.
				block := uint64(i*(w+3)) % 512 % uint64(1+i%97)
				ref, err := pool.Get(sess, bpwrapper.NewPageID(1, block))
				if err != nil {
					log.Fatal(err)
				}
				_ = ref.Data()[0] // use the page while pinned
				ref.Release()
			}
		}(w)
	}
	wg.Wait()

	ps := pool.Stats()
	st, accesses := ps.Wrapper, ps.Hits+ps.Misses
	fmt.Printf("accesses:          %d (%.1f%% hits)\n", accesses, 100*ps.HitRatio)
	fmt.Printf("lock acquisitions: %d (%.1f accesses per acquisition)\n",
		st.Lock.Acquisitions, float64(accesses)/float64(st.Lock.Acquisitions))
	fmt.Printf("blocking waits:    %d\n", st.Lock.Contentions)
	fmt.Printf("batched commits:   %d via TryLock, %d forced\n", st.TryCommits, st.ForcedLocks)
	fmt.Printf("stale records dropped by tag validation: %d\n", st.Dropped)

	// Without batching every one of those accesses would have been a lock
	// acquisition; print the reduction factor BP-Wrapper achieved.
	fmt.Printf("lock-acquisition reduction: %.0fx\n",
		float64(accesses)/float64(st.Lock.Acquisitions))
}
