package main

import (
	"os"
	"regexp"
	"sort"
	"testing"

	"bpwrapper"
	"bpwrapper/internal/server"
)

// TestEverySeriesBpstatReadsIsEmitted holds bpstat's string literals to the
// registry: a misspelt or retired bpw_* name renders as 0, not as an
// error, so nothing else would notice. Every name main.go quotes must
// come back from the /debug/vars of a process that registers what
// bpserver -controller -trace registers, over a pool whose shard stacks
// carry a breaker and a deadline.
func TestEverySeriesBpstatReadsIsEmitted(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	read := map[string]bool{}
	for _, m := range regexp.MustCompile(`"(bpw_[a-z_]+)"`).FindAllSubmatch(src, -1) {
		read[string(m[1])] = true
	}
	if len(read) < 40 {
		t.Fatalf("found %d bpw_* literals in main.go, want the forty-odd it polls: the scan is broken", len(read))
	}

	dev := bpwrapper.NewFaultDevice(bpwrapper.NewMemDevice(), bpwrapper.FaultConfig{})
	pool := bpwrapper.NewPool(bpwrapper.PoolConfig{
		Frames:        8,
		Shards:        2,
		PolicyFactory: bpwrapper.PolicyFactories()["lru"],
		Wrapper:       bpwrapper.WrapperConfig{Batching: true},
		Device:        dev,
		QuarantineCap: 1,
		RecorderSize:  64,
		Trace:         bpwrapper.TraceConfig{Enable: true},
		WrapShardDevice: func(_ int, base bpwrapper.Device) bpwrapper.Device {
			bounded := bpwrapper.NewDeadlineDevice(base, bpwrapper.DeadlineConfig{})
			return bpwrapper.NewBreakerDevice(bounded, bpwrapper.BreakerConfig{})
		},
	})
	defer pool.Close()
	bw := pool.StartBackgroundWriter(bpwrapper.BackgroundWriterConfig{})
	defer bw.Stop()
	ctl := bpwrapper.NewController(bpwrapper.ControllerConfig{Pool: pool, Writer: bw})
	srv, err := server.New(server.Config{Pool: pool, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reg := bpwrapper.NewObsRegistry()
	pool.RegisterObs(reg)
	bw.RegisterObs(reg)
	ctl.RegisterObs(reg)
	srv.RegisterObs(reg)
	osrv, err := bpwrapper.NewObsServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer osrv.Close()

	// Three series appear with their first sample: per-op latency wants a
	// request served, the ghost scores a controller pass, and the last
	// action an actuation — the cheapest to stage is the writer speed-up,
	// which one dirty page whose eviction write fails earns at this
	// quarantine cap.
	c, err := server.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dev.SetWriteFailRate(1)
	defer dev.SetWriteFailRate(0) // before Close, which writes the page out
	if err := c.Put(bpwrapper.NewPageID(1, 0), make([]byte, bpwrapper.PageSize)); err != nil {
		t.Fatal(err)
	}
	for n := uint64(1); pool.Stats().Quarantined == 0; n++ { // four frames a shard: page 0 is soon evicted, and parks
		if _, err := c.Get(bpwrapper.NewPageID(1, n)); err != nil || n > 64 {
			t.Fatalf("Get of page %d with page 0 not parked yet: %v", n, err)
		}
	}
	if acts := ctl.Step(); len(acts) == 0 {
		t.Fatalf("the controller took no action with %d page(s) quarantined", pool.Stats().Quarantined)
	}

	tr, err := fetch(osrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var missing []string
	for name := range read {
		if len(tr[name]) == 0 {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("bpstat reads %d series, %d of them nobody emits: %v", len(read), len(missing), missing)
	}
}
