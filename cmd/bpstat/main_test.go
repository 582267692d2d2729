package main

import (
	"io"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"bpwrapper"
	"bpwrapper/internal/server"
)

// TestEverySeriesBpstatReadsIsEmitted holds bpstat's string literals to the
// registry: a misspelt or retired bpw_* name renders as 0, not as an
// error, so nothing else would notice. Every name main.go quotes must
// come back from the /debug/vars of a process that registers what
// bpserver -trace registers.
func TestEverySeriesBpstatReadsIsEmitted(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	read := map[string]bool{}
	for _, m := range regexp.MustCompile(`"(bpw_[a-z_]+)"`).FindAllSubmatch(src, -1) {
		read[string(m[1])] = true
	}
	if len(read) < 35 {
		t.Fatalf("found %d bpw_* literals in main.go, want the thirty-odd it polls: the scan is broken", len(read))
	}

	pool := bpwrapper.NewPool(bpwrapper.PoolConfig{
		Frames:        8,
		PolicyFactory: bpwrapper.PolicyFactories()["lru"],
		Wrapper:       bpwrapper.WrapperConfig{Batching: true},
		Device:        bpwrapper.NewMemDevice(),
		RecorderSize:  64,
		Trace:         bpwrapper.TraceConfig{Enable: true},
	})
	defer pool.Close()
	bw := pool.StartBackgroundWriter(bpwrapper.BackgroundWriterConfig{})
	defer bw.Stop()
	srv, err := server.New(server.Config{Pool: pool, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reg := bpwrapper.NewObsRegistry()
	pool.RegisterObs(reg)
	srv.RegisterObs(reg)
	osrv, err := bpwrapper.NewObsServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer osrv.Close()

	// Per-op latency appears with its first sample: it wants a request
	// served.
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

// TestRenderNamesReadOnlyHealth scrapes a pool lowered to its read-only
// floor: the pool line's health column must name the gauge's value as the
// pool names it.
func TestRenderNamesReadOnlyHealth(t *testing.T) {
	pool := bpwrapper.NewPool(bpwrapper.PoolConfig{
		Frames:        8,
		PolicyFactory: bpwrapper.PolicyFactories()["lru"],
		Device:        bpwrapper.NewMemDevice(),
	})
	defer pool.Close()
	pool.SetReadOnly(true)
	reg := bpwrapper.NewObsRegistry()
	pool.RegisterObs(reg)
	osrv, err := bpwrapper.NewObsServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer osrv.Close()
	tr, err := fetch(osrv.Addr())
	if err != nil {
		t.Fatal(err)
	}

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	render(tr, nil, 0)
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), " read-only ") {
		t.Fatalf("a read-only pool's line does not say read-only:\n%s", out)
	}
}
