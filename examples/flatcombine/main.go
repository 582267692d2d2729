// Flat combining: the same buffer pool as the quickstart, but with the
// commit path switched from the paper's TryLock-or-block protocol to flat
// combining (WrapperConfig.FlatCombining). When a session's batch reaches
// the threshold it publishes the batch in its own cache-line-padded slot
// and tries the lock exactly once: the winner applies every session's
// published batch in one critical section; losers swap to a spare buffer
// and keep recording without ever blocking. The printed stats show how
// much of the commit work was absorbed by combiners.
package main

import (
	"fmt"
	"log"
	"sync"

	"bpwrapper"
)

func main() {
	const frames = 1024

	factory, ok := bpwrapper.PolicyFactories()["2q"]
	if !ok {
		log.Fatal("unknown policy")
	}

	pool := bpwrapper.NewPool(bpwrapper.PoolConfig{
		Frames:        frames,
		PolicyFactory: factory,
		// A small queue and threshold commit often, which is exactly the
		// regime where the commit protocol matters (the bpbench combine
		// experiment uses the same tuning). FlatCombining implies Batching.
		Wrapper: bpwrapper.WrapperConfig{
			Batching:       true,
			Prefetching:    true,
			FlatCombining:  true,
			QueueSize:      8,
			BatchThreshold: 4,
		},
		Device: bpwrapper.NewMemDevice(),
	})

	var wg sync.WaitGroup
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := pool.NewSession()
			defer sess.Flush() // commit queued and published hit records
			for i := 0; i < 20000; i++ {
				block := uint64(i*(w+3)) % 512 % uint64(1+i%97)
				ref, err := pool.Get(sess, bpwrapper.NewPageID(1, block))
				if err != nil {
					log.Fatal(err)
				}
				_ = ref.Data()[0]
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

	// Flat-combining activity: HandoffSaved counts batches that would have
	// blocked under the paper's protocol but were instead published and
	// handed to a combiner; CombinedBatches/CombinedEntries is the work
	// combiners applied on behalf of other sessions. Both need real lock
	// contention to be non-zero — on a single-core machine TryLock nearly
	// always succeeds and the numbers stay at zero (run `bpbench -exp
	// combine` for a 16-processor simulation instead).
	fmt.Printf("batch commits:     %d via TryLock, %d forced\n", st.TryCommits, st.ForcedLocks)
	fmt.Printf("handoffs saved:    %d batches published instead of blocking\n", st.HandoffSaved)
	fmt.Printf("combined:          %d batches (%d entries) applied for other sessions\n",
		st.CombinedBatches, st.CombinedEntries)
}
