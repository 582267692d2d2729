// Command bpserver serves a BP-Wrapper buffer pool over TCP: a
// standalone page-cache service speaking the length-prefixed binary
// protocol of internal/server (GET/PUT/INVALIDATE/FLUSH, pipelined).
// Remote clients map onto pool sessions one-to-one, so the paper's
// batching protocol sees the same access pattern it would see in-process.
//
// SIGINT/SIGTERM triggers a graceful drain: the listener closes, the
// pool drops to its read-only floor, in-flight clients finish their
// tails against resident pages, and the pool flushes every dirty page
// before exit. A second signal forces an immediate close.
//
// Examples:
//
//	bpserver -addr :7071 -frames 4096 -policy lirs
//	bpserver -addr :7071 -obs :6060        # /metrics for bpstat
//	bpserver -addr :7071 -obs :6060 -trace # request tracing at /debug/traces
//	bpload -remote 127.0.0.1:7071 -workload tpcc -workers 16
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bpwrapper"
	"bpwrapper/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7071", "TCP listen address")
		policyName  = flag.String("policy", "2q", "replacement algorithm")
		frames      = flag.Int("frames", 4096, "buffer frames")
		batching    = flag.Bool("batching", true, "BP-Wrapper batching")
		prefetching = flag.Bool("prefetching", true, "BP-Wrapper prefetching")
		diskLat     = flag.Duration("disk", 0, "simulated disk read latency (0 = instant memory device)")
		bgwriter    = flag.Bool("bgwriter", true, "run the background writer")
		maxConns    = flag.Int("max-conns", 1024, "concurrent connection limit")
		writeTO     = flag.Duration("write-timeout", 10*time.Second, "per-connection write backpressure timeout")
		drainGrace  = flag.Duration("drain-grace", 50*time.Millisecond, "graceful-drain serving window")
		drainBudget = flag.Duration("drain-budget", 30*time.Second, "total graceful-drain budget (incl. dirty flush)")
		obsAddr     = flag.String("obs", "", "serve /metrics, /debug/vars and pprof on this address (e.g. :6060)")
		recorder    = flag.Int("recorder", 4096, "flight-recorder ring size (0 disables)")
		traceOn     = flag.Bool("trace", false, "arm request tracing (head-sampled spans + tail-kept slow requests, served at /debug/traces)")
		traceSample = flag.Int("trace-sample", 0, "with -trace: head-sample every Nth request (0 = default 1024)")
		traceSLO    = flag.Duration("trace-slo", 0, "with -trace: keep any request slower than this in the tail ring (0 = default 1ms)")
	)
	flag.Parse()

	factory, ok := bpwrapper.PolicyFactories()[*policyName]
	if !ok {
		fatal(fmt.Errorf("unknown policy %q", *policyName))
	}
	var device bpwrapper.Device = bpwrapper.NewMemDevice()
	if *diskLat > 0 {
		device = bpwrapper.NewSimDisk(bpwrapper.NewMemDevice(), bpwrapper.SimDiskConfig{ReadLatency: *diskLat})
	}
	pool := bpwrapper.NewPool(bpwrapper.PoolConfig{
		Frames:        *frames,
		PolicyFactory: factory,
		Wrapper: bpwrapper.WrapperConfig{
			Batching:    *batching,
			Prefetching: *prefetching,
		},
		Device:       device,
		RecorderSize: *recorder,
		Trace: bpwrapper.TraceConfig{
			Enable:      *traceOn,
			SampleEvery: *traceSample,
			SLO:         *traceSLO,
		},
	})
	var bw *bpwrapper.BackgroundWriter
	if *bgwriter {
		bw = pool.StartBackgroundWriter(bpwrapper.BackgroundWriterConfig{})
	}

	srv, err := server.New(server.Config{
		Pool:         pool,
		Addr:         *addr,
		MaxConns:     *maxConns,
		WriteTimeout: *writeTO,
		DrainGrace:   *drainGrace,
	})
	if err != nil {
		fatal(err)
	}

	if *obsAddr != "" {
		reg := bpwrapper.NewObsRegistry()
		pool.RegisterObs(reg)
		srv.RegisterObs(reg)
		osrv, err := bpwrapper.NewObsServer(*obsAddr, reg)
		if err != nil {
			fatal(err)
		}
		defer osrv.Close()
		fmt.Printf("bpserver: obs on http://%s/metrics\n", osrv.Addr())
	}

	fmt.Printf("bpserver: serving %d frames (%s, batching=%v) on %s\n",
		*frames, *policyName, *batching, srv.Addr())

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Printf("bpserver: draining (grace %v, budget %v)\n", *drainGrace, *drainBudget)
	if bw != nil {
		bw.Stop()
	}
	done := make(chan error, 1)
	go func() { done <- srv.Drain(*drainBudget) }()
	select {
	case err := <-done:
		if err != nil {
			fatal(fmt.Errorf("drain: %w", err))
		}
		fmt.Println("bpserver: drained clean, all dirty pages flushed")
	case <-sig:
		fmt.Fprintln(os.Stderr, "bpserver: second signal, forcing close")
		srv.Close()
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bpserver:", err)
	os.Exit(1)
}
