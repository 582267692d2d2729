// The workflow guard: the server-smoke and trace-smoke jobs boot bpserver
// and grep its /metrics for bpw_* series. Those greps run only in CI, so a
// renamed series or a dropped label would first show there. This test
// boots the same stack in process and holds every such grep to the
// exposition it scrapes.
package bpwrapper_test

import (
	"bufio"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"bpwrapper"
	"bpwrapper/internal/server"
)

// workflowGrep finds a `grep -q '<pattern>'` of a bpw_* series.
var workflowGrep = regexp.MustCompile(`grep -q '([^']*bpw_[^']*)'`)

// TestWorkflowMetricGrepsMatchExposition builds what bpserver -obs -trace
// builds — a pool with its flight recorder, a background writer and a
// server, all registered for observability — serves it some GETs, scrapes
// /metrics, and requires every bpw_* grep in .github/workflows to match a
// line of the scrape. A pattern is a literal, optionally anchored with a
// leading ^; any other regular-expression syntax fails the test, because
// this check would not model it.
func TestWorkflowMetricGrepsMatchExposition(t *testing.T) {
	files, err := filepath.Glob(".github/workflows/*.yml")
	if err != nil || len(files) == 0 {
		t.Fatalf("no workflows found (%v)", err)
	}
	type grep struct{ where, pattern string }
	var greps []grep
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range workflowGrep.FindAllStringSubmatch(line, -1) {
				greps = append(greps, grep{where: f + ":" + strconv.Itoa(i+1), pattern: m[1]})
			}
		}
	}
	if len(greps) < 5 {
		t.Fatalf("found %d bpw_* greps in the workflows, want the eight the smoke jobs run: the scan is broken", len(greps))
	}

	pool := bpwrapper.NewPool(bpwrapper.PoolConfig{
		Frames:        64,
		PolicyFactory: bpwrapper.PolicyFactories()["2q"],
		Wrapper:       bpwrapper.WrapperConfig{Batching: true, Prefetching: true},
		Device:        bpwrapper.NewMemDevice(),
		RecorderSize:  4096,
		Trace:         bpwrapper.TraceConfig{Enable: true, SampleEvery: 64},
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
	bw.RegisterObs(reg)
	srv.RegisterObs(reg)
	osrv, err := bpwrapper.NewObsServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer osrv.Close()

	c, err := server.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for n := uint64(0); n < 256; n++ {
		if _, err := c.Get(bpwrapper.NewPageID(1, n%128)); err != nil {
			t.Fatalf("Get of page %d: %v", n%128, err)
		}
	}

	resp, err := http.Get("http://" + osrv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var scrape []string
	for sc := bufio.NewScanner(strings.NewReader(string(body))); sc.Scan(); {
		scrape = append(scrape, sc.Text())
	}

	for _, g := range greps {
		lit, anchored := strings.CutPrefix(g.pattern, "^")
		if strings.ContainsAny(lit, `.*[]$\`) {
			t.Errorf("%s: pattern %q uses regular-expression syntax this check does not model", g.where, g.pattern)
			continue
		}
		found := false
		for _, line := range scrape {
			if anchored && strings.HasPrefix(line, lit) || !anchored && strings.Contains(line, lit) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: grep -q %q matches no line of the /metrics scrape", g.where, g.pattern)
		}
	}
}
