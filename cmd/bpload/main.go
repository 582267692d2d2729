// Command bpload drives a buffer pool with a chosen workload and prints
// live statistics — the operational companion to the experiment harnesses,
// useful for eyeballing behaviour on the machine at hand. The pool is an
// in-process one bpload builds, or a bpserver it reaches over the wire
// (-remote); both run on bpwrapper.RunFleet, one worker loop with a local
// and a remote transport.
//
// Examples:
//
//	bpload -workload tpcc -frames 4096 -policy lirs -duration 10s
//	bpload -workload ycsb-a -policy 2q -batching=false       # feel the lock
//	bpload -workload zipf -frames 512 -disk 250µs            # I/O bound
//	bpload -remote 127.0.0.1:7071 -workers 16                # drive a bpserver
//	bpload -workload tpcw -obs :6060 -trace 64               # request traces at /debug/traces
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"bpwrapper"
)

func main() {
	var (
		wlName      = flag.String("workload", "tpcw", "workload name (see bpwrapper.WorkloadByName)")
		policyName  = flag.String("policy", "2q", "replacement algorithm")
		frames      = flag.Int("frames", 0, "buffer frames (0 = full working set)")
		workers     = flag.Int("workers", 8, "concurrent backends")
		duration    = flag.Duration("duration", 5*time.Second, "run length")
		batching    = flag.Bool("batching", true, "BP-Wrapper batching")
		prefetching = flag.Bool("prefetching", true, "BP-Wrapper prefetching")
		diskLat     = flag.Duration("disk", 0, "simulated disk read latency (0 = instant memory device)")
		bgwriter    = flag.Bool("bgwriter", true, "run the background writer")
		statsEvery  = flag.Duration("stats", time.Second, "live stats interval")
		seed        = flag.Int64("seed", 1, "workload seed")
		obsAddr     = flag.String("obs", "", "serve /metrics, /debug/vars, /debug/events and pprof on this address (e.g. :6060)")
		recorder    = flag.Int("recorder", 4096, "flight-recorder ring size (0 disables)")
		remote      = flag.String("remote", "", "drive a bpserver at this address instead of an in-process pool")
		txns        = flag.Int("txns", 0, "stop after this many txns per worker (0 = run out -duration)")
		pipeline    = flag.Int("pipeline", 8, "with -remote: page accesses pipelined per burst")
		traceEvery  = flag.Int("trace", 0, "arm request tracing: locally, head-sample every Nth request (1 = all); with -remote, stamp a trace ID on every Nth burst so the server traces it end to end (0 disables)")
	)
	flag.Parse()

	wl, err := bpwrapper.WorkloadByName(*wlName)
	if err != nil {
		fatal(err)
	}
	live := &bpwrapper.FleetLive{}
	cfg := bpwrapper.FleetConfig{
		Workload:      wl,
		Workers:       *workers,
		Duration:      *duration,
		TxnsPerWorker: *txns,
		Seed:          *seed,
		Live:          live,
	}
	var pool *bpwrapper.Pool
	if *remote != "" {
		cfg.Addr = *remote
		cfg.PipelineDepth = *pipeline
		cfg.TraceEvery = *traceEvery
		fmt.Printf("bpload: %s against bpserver %s, %d workers, pipeline %d\n",
			wl.Name(), *remote, *workers, *pipeline)
	} else {
		nFrames := *frames
		if nFrames <= 0 {
			nFrames = wl.DataPages()
		}
		factory, ok := bpwrapper.PolicyFactories()[*policyName]
		if !ok {
			fatal(fmt.Errorf("unknown policy %q", *policyName))
		}
		var device bpwrapper.Device = bpwrapper.NewMemDevice()
		if *diskLat > 0 {
			device = bpwrapper.NewSimDisk(bpwrapper.NewMemDevice(), bpwrapper.SimDiskConfig{ReadLatency: *diskLat})
		}
		pool = bpwrapper.NewPool(bpwrapper.PoolConfig{
			Frames:        nFrames,
			PolicyFactory: factory,
			Wrapper: bpwrapper.WrapperConfig{
				Batching:    *batching,
				Prefetching: *prefetching,
			},
			Device:       device,
			RecorderSize: *recorder,
			Trace: bpwrapper.TraceConfig{
				Enable:      *traceEvery > 0,
				SampleEvery: *traceEvery,
			},
		})
		cfg.Pool = pool
		var bw *bpwrapper.BackgroundWriter
		if *bgwriter {
			bw = pool.StartBackgroundWriter(bpwrapper.BackgroundWriterConfig{})
			defer bw.Stop()
		}
		if *obsAddr != "" {
			reg := bpwrapper.NewObsRegistry()
			pool.RegisterObs(reg)
			if bw != nil {
				bw.RegisterObs(reg)
			}
			srv, err := bpwrapper.NewObsServer(*obsAddr, reg)
			if err != nil {
				fatal(err)
			}
			defer srv.Close()
			fmt.Printf("obs: serving metrics on http://%s/metrics\n", srv.Addr())
		}
		fmt.Printf("bpload: %s over %d frames (%s, batching=%v prefetching=%v), %d workers, %v\n",
			wl.Name(), nFrames, *policyName, *batching, *prefetching, *workers, *duration)
	}

	// The ticker reads the lagging FleetLive view (and the pool bpload
	// owns); the summary comes from FleetResult's post-join fold, which is
	// exact however the run ended (clock, -txns, or a server drain).
	stop := make(chan struct{})
	go func() {
		ticker := time.NewTicker(*statsEvery)
		defer ticker.Stop()
		var lastTxns, lastReads, lastWrites, lastHits, lastMisses int64
		for {
			select {
			case <-ticker.C:
				// Rates from the elapsed interval, not time.Second/interval:
				// that integer division is 0 for any interval over a second.
				t, r, w := live.Txns.Load(), live.Reads.Load(), live.Writes.Load()
				line := fmt.Sprintf("  %8.0f txn/s  %8.0f reads/s  %8.0f writes/s  shed %d  errors %d",
					float64(t-lastTxns)/statsEvery.Seconds(),
					float64(r-lastReads)/statsEvery.Seconds(),
					float64(w-lastWrites)/statsEvery.Seconds(),
					live.Overloaded.Load(), live.Errors.Load())
				lastTxns, lastReads, lastWrites = t, r, w
				if pool != nil {
					st := pool.Stats()
					dh, dm := st.Hits-lastHits, st.Misses-lastMisses
					lastHits, lastMisses = st.Hits, st.Misses
					hr := 0.0
					if dh+dm > 0 {
						hr = float64(dh) / float64(dh+dm)
					}
					line += fmt.Sprintf("  hit %5.1f%%  dirty %4d  free %4d  lock acq %d  contended %d",
						100*hr, st.Dirty, st.Free, st.Wrapper.Lock.Acquisitions, st.Wrapper.Lock.Contentions)
				}
				fmt.Println(line)
			case <-stop:
				return
			}
		}
	}()

	res, err := bpwrapper.RunFleet(cfg)
	close(stop)
	if err != nil {
		fatal(err)
	}

	c := res.Counters
	tps := 0.0
	if res.Elapsed > 0 {
		tps = float64(c.Txns) / res.Elapsed.Seconds()
	}
	fmt.Printf("\ncompleted %d txns in %v (%.0f tps)\n", c.Txns, res.Elapsed.Round(time.Millisecond), tps)
	fmt.Printf("operations  %d reads, %d writes\n", c.Reads, c.Writes)
	fmt.Printf("refusals    %d overloaded (shed), %d draining\n", c.Overloaded, c.Draining)
	fmt.Printf("errors      %d\n", c.Errors)
	if res.Latency.Count() > 0 {
		fmt.Printf("txn latency mean %v  p50 %v  p99 %v\n",
			res.Latency.Mean().Round(time.Microsecond),
			res.Latency.Quantile(0.50).Round(time.Microsecond),
			res.Latency.Quantile(0.99).Round(time.Microsecond))
	}
	if pool != nil {
		// Exact: every worker's session was flushed before RunFleet returned.
		st := pool.Stats()
		fmt.Printf("accesses    %d (hit ratio %.2f%%)\n", st.Hits+st.Misses, 100*st.HitRatio)
		fmt.Printf("lock        %d acquisitions, %d contended, %d TryLock failures\n",
			st.Wrapper.Lock.Acquisitions, st.Wrapper.Lock.Contentions, st.Wrapper.Lock.TryFailures)
		fmt.Printf("batching    %d commits (%d TryLock, %d forced), %d stale dropped\n",
			st.Wrapper.Commits, st.Wrapper.TryCommits, st.Wrapper.ForcedLocks, st.Wrapper.Dropped)
		if n, err := pool.FlushDirty(); err == nil && n > 0 {
			fmt.Printf("flushed     %d dirty pages on shutdown\n", n)
		}
	}
	if c.Errors > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bpload:", err)
	os.Exit(1)
}
