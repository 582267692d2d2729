// The workflow guard: the server-smoke and trace-smoke jobs boot bpserver
// and grep its /metrics for bpw_* series. Those greps run only in CI, so a
// renamed series or a dropped label would first show there. This test
// boots the same stack in process and holds every such grep to the
// exposition it scrapes. The census guard beside it holds every family of
// that scrape to a reader.
package bpwrapper_test

import (
	"bufio"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"bpwrapper"
	"bpwrapper/internal/server"
)

// workflowGrep finds a `grep -q '<pattern>'` of a bpw_* series.
var workflowGrep = regexp.MustCompile(`grep -q '([^']*bpw_[^']*)'`)

// TestWorkflowMetricGrepsMatchExposition scrapes what bpserver -obs -trace
// serves (scrapeFullStack) and requires every bpw_* grep in
// .github/workflows to match a line of the scrape. A pattern is a literal,
// optionally anchored with a leading ^; any other regular-expression
// syntax fails the test, because this check would not model it.
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

	scrape := scrapeFullStack(t)

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

// seriesWithoutBpstat lists the emitted families bpstat does not read.
// Each stays because the file it cites reads it — a test asserts its
// value, or a doc says what it shows — and the census checks that the file
// names the family, so a reason cannot outlive its reader.
var seriesWithoutBpstat = map[string]struct{ file, why string }{
	"bpw_server_responses_total": {"internal/server/server_test.go",
		`TestServerObsMetrics asserts {status="ok"} 1`},
	"bpw_prefetch_walks_total": {"README.md",
		"README and DESIGN §4 read it as the prefetch gate: 0 with a single caller, non-zero under contention"},
	"bpw_evict_writebacks_total": {"DESIGN.md",
		"DESIGN's background-writer paragraph: it shows that evictions, not the writer, write nearly every dirty victim"},
	"bpw_lock_hold_seconds": {"DESIGN.md",
		"DESIGN's sampling-strategy paragraph: ROADMAP 3(ii) reads it to name who holds the policy lock when a waiter arrives"},
}

// TestEverySeriesHasAReader is the /metrics census: every family the full
// stack emits (scrapeFullStack) is named as a string literal by bpstat's
// main.go or is listed in seriesWithoutBpstat, whose cited file must name
// it. An entry that is not emitted, or that bpstat already reads, is stale
// and fails too.
func TestEverySeriesHasAReader(t *testing.T) {
	src, err := os.ReadFile("cmd/bpstat/main.go")
	if err != nil {
		t.Fatal(err)
	}
	bpstat := map[string]bool{}
	for _, m := range regexp.MustCompile(`"(bpw_[a-z_]+)"`).FindAllSubmatch(src, -1) {
		bpstat[string(m[1])] = true
	}
	emitted := map[string]bool{}
	for _, line := range scrapeFullStack(t) {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			emitted[f[2]] = true
		}
	}
	if len(bpstat) < 35 || len(emitted) < 35 {
		t.Fatalf("bpstat names %d families and the scrape emits %d, want the forty-odd each: the scan is broken", len(bpstat), len(emitted))
	}

	var unread []string
	for name := range emitted {
		if _, listed := seriesWithoutBpstat[name]; !bpstat[name] && !listed {
			unread = append(unread, name)
		}
	}
	sort.Strings(unread)
	if len(unread) > 0 {
		t.Errorf("%d families have no reader: bpstat does not name them and seriesWithoutBpstat does not list them:\n  %s",
			len(unread), strings.Join(unread, "\n  "))
	}
	for name, e := range seriesWithoutBpstat {
		switch {
		case !emitted[name]:
			t.Errorf("seriesWithoutBpstat lists %s, which the scrape does not emit", name)
		case bpstat[name]:
			t.Errorf("seriesWithoutBpstat lists %s, which bpstat already reads", name)
		}
		doc, err := os.ReadFile(e.file)
		if err != nil {
			t.Errorf("seriesWithoutBpstat: %s cites %s: %v", name, e.file, err)
			continue
		}
		if !regexp.MustCompile(`\b` + regexp.QuoteMeta(name) + `\b`).Match(doc) {
			t.Errorf("seriesWithoutBpstat: %s cites %s (%s), which does not name it", name, e.file, e.why)
		}
	}
}

// scrapeFullStack builds what bpserver -obs -trace builds — a pool with
// its flight recorder and request tracer, a background writer and a
// server, pool and server registered for observability — serves it some
// GETs, and returns the lines of one /metrics scrape.
func scrapeFullStack(t *testing.T) []string {
	t.Helper()
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
	return scrape
}
