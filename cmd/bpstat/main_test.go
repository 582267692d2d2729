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
// bpserver -controller -trace registers.
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

	pool := bpwrapper.NewPool(bpwrapper.PoolConfig{
		Frames:        8,
		Shards:        2,
		PolicyFactory: bpwrapper.PolicyFactories()["lru"],
		Wrapper:       bpwrapper.WrapperConfig{Batching: true},
		Device:        bpwrapper.NewMemDevice(),
		RecorderSize:  64,
		Trace:         bpwrapper.TraceConfig{Enable: true},
	})
	defer pool.Close()
	bw := pool.StartBackgroundWriter(bpwrapper.BackgroundWriterConfig{})
	defer bw.Stop()
	ctl := bpwrapper.NewController(bpwrapper.ControllerConfig{Pool: pool, SampleRate: 1, MinWindow: 64, SwapPatience: 1})
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
	// action an actuation — the cheapest to stage is a policy swap: the lru
	// incumbent is no candidate, so it has no ghost score, and the first
	// step past MinWindow sampled accesses swaps in the best candidate.
	c, err := server.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for n := uint64(0); n < 256; n++ {
		if _, err := c.Get(bpwrapper.NewPageID(1, n%4)); err != nil {
			t.Fatalf("Get of page %d: %v", n%4, err)
		}
	}
	if acts := ctl.Step(); len(acts) == 0 {
		t.Fatalf("the controller took no action after 256 sampled accesses; scores %v", ctl.Scores())
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
