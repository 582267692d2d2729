// Command bpstat polls a running pool's observability endpoint (bpserver
// or bpload started with -obs) and renders a live pool line — the iostat
// of the BP-Wrapper stack. Rates are deltas between polls; the
// first sample prints totals.
//
// Against a bpserver an additional latency panel prints each operation's
// p50/p99/p999 handle latency (bpw_server_op_seconds), and when request
// tracing is enabled a trace panel summarizes the tracer's keep/drop
// counters; the pool line's waitp99 column is the lock-wait tail from
// bpw_lock_wait_seconds.
//
// Usage:
//
//	bpstat                       # poll 127.0.0.1:6060 every second
//	bpstat -addr :6061 -interval 2s
//	bpstat -once                 # one sample and exit (totals, no rates)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"time"

	"bpwrapper/internal/buffer"
)

// series is one labelled sample of the /debug/vars "bpwrapper" tree, as
// written by obs.Registry.JSONTree.
type series struct {
	Labels map[string]string `json:"labels"`
	Value  float64           `json:"value"`
	Count  int64             `json:"count"`
	Sum    float64           `json:"sum"`
	Max    int64             `json:"max"`
	Mean   float64           `json:"mean"`

	// Duration-histogram summaries (obs.JSONTree computes the quantiles
	// server-side from the bucket snapshot).
	MeanSec float64 `json:"mean_seconds"`
	P50Sec  float64 `json:"p50_seconds"`
	P99Sec  float64 `json:"p99_seconds"`
	P999Sec float64 `json:"p999_seconds"`
}

type tree map[string][]series

// labelled returns the value of the named metric's series that carries
// label key=val (0 when absent) — e.g. bpw_miss_waits_total{on="evict"}.
func (t tree) labelled(name, key, val string) float64 {
	for _, s := range t[name] {
		if s.Labels[key] == val {
			return s.Value
		}
	}
	return 0
}

// dist returns the named distribution's one series.
func (t tree) dist(name string) series {
	for _, s := range t[name] {
		return s
	}
	return series{}
}

// val returns the named unlabelled metric's value (0 when absent).
func (t tree) val(name string) float64 {
	for _, s := range t[name] {
		return s.Value
	}
	return 0
}

// sum folds every labelled series of one name — e.g. requests_total
// across its per-op labels.
func (t tree) sum(name string) float64 {
	var n float64
	for _, s := range t[name] {
		n += s.Value
	}
	return n
}

// policy returns the replacement policy installed in the pool, read from
// the bpw_policy_in_use info gauge ("?" when absent).
func (t tree) policy() string {
	for _, s := range t["bpw_policy_in_use"] {
		return s.Labels["policy"]
	}
	return "?"
}

func fetch(addr string) (tree, error) {
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /debug/vars: status %d", resp.StatusCode)
	}
	var all struct {
		BPWrapper tree `json:"bpwrapper"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		return nil, fmt.Errorf("decode /debug/vars: %w", err)
	}
	if all.BPWrapper == nil {
		return nil, fmt.Errorf("no \"bpwrapper\" tree in /debug/vars (is -obs enabled?)")
	}
	return all.BPWrapper, nil
}

// render prints the pool line. prev is the previous poll (nil on the
// first), dt the time between them; the rate column falls back to totals
// when prev is nil.
func render(t, prev tree, dt time.Duration) {
	if len(t["bpw_lock_acquisitions_total"]) == 0 {
		fmt.Println("no pool series yet (pool not registered)")
		return
	}
	hits, misses := t.val("bpw_hits_total"), t.val("bpw_misses_total")
	rateHdr, rate := "accesses", hits+misses
	if prev != nil && dt > 0 {
		rateHdr = "acc/s"
		rate = (rate - prev.val("bpw_hits_total") - prev.val("bpw_misses_total")) / dt.Seconds()
	}
	hitPct := 0.0
	if hits+misses > 0 {
		hitPct = 100 * hits / (hits + misses)
	}
	// Hit-path anatomy: share of hits served with zero locks, plus the
	// torn-probe retries and locked fallbacks (retry storms show up here
	// first).
	fastPct := 0.0
	if hits > 0 {
		fastPct = 100 * t.val("bpw_hitpath_fast_total") / hits
	}
	// The policy column sizes itself to the name ("clockpro" is wider than
	// its header), so no column after it shears out of alignment.
	pol := t.policy()
	polW := max(len("policy"), len(pol))
	// The contended-wait tail: p99 of bpw_lock_wait_seconds, the hit-path
	// histogram the tracing layer decomposes per request.
	wait := t.dist("bpw_lock_wait_seconds")
	// Waits on a page somebody else had in flight, by what was in flight:
	// another miss's read, or an eviction's write-back.
	waits := fmt.Sprintf("%.0f/%.0f",
		t.labelled("bpw_miss_waits_total", "on", "load"),
		t.labelled("bpw_miss_waits_total", "on", "evict"))
	fmt.Printf("%-*s  %10s  %6s  %6s  %7s  %7s  %9s  %9s  %9s  %8s  %8s  %7s  %6s  %6s  %11s  %7s  %-9s  %6s\n",
		polW, "policy", rateHdr, "hit%", "fast%", "retries", "fallbk", "lock acq", "blocked", "tryfail", "waitp99", "batchavg", "combavg", "dirty", "quar", "mwait ld/ev", "fldrop", "health", "shed")
	fmt.Printf("%-*s  %10.0f  %5.1f%%  %5.1f%%  %7.0f  %7.0f  %9.0f  %9.0f  %9.0f  %8s  %8.2f  %7.2f  %6.0f  %6.0f  %11s  %7.0f  %-9s  %6.0f\n",
		polW, pol, rate, hitPct, fastPct,
		t.val("bpw_hitpath_retries_total"),
		t.val("bpw_hitpath_fallbacks_total"),
		t.val("bpw_lock_acquisitions_total"),
		t.val("bpw_lock_contentions_total"),
		t.val("bpw_lock_try_failures_total"),
		durCol(wait.P99Sec), t.dist("bpw_batch_size").Mean, t.dist("bpw_combine_run_length").Mean,
		t.val("bpw_dirty_pages"),
		t.val("bpw_quarantined_pages"),
		waits,
		t.val("bpw_flight_dropped_total"),
		buffer.HealthState(t.val("bpw_health_state")).String(),
		t.val("bpw_shed_total"))
}

// durCol renders a seconds figure for a fixed-width latency column,
// scaling the unit ("-" when the histogram is still empty).
func durCol(sec float64) string {
	switch {
	case sec <= 0:
		return "-"
	case sec >= 1:
		return fmt.Sprintf("%.2fs", sec)
	case sec >= 1e-3:
		return fmt.Sprintf("%.2fms", sec*1e3)
	default:
		return fmt.Sprintf("%.1fµs", sec*1e6)
	}
}

// renderLatency prints one line per server operation with the p50/p99/p999
// of its handle latency (bpw_server_op_seconds), the columns the tracing
// layer's exemplars index into.
func renderLatency(t tree) {
	ops := t["bpw_server_op_seconds"]
	if len(ops) == 0 {
		return
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].Labels["op"] < ops[j].Labels["op"] })
	fmt.Printf("%-10s  %10s  %9s  %9s  %9s  %9s\n", "latency", "count", "mean", "p50", "p99", "p999")
	for _, s := range ops {
		if s.Count == 0 {
			continue
		}
		fmt.Printf("%-10s  %10d  %9s  %9s  %9s  %9s\n",
			s.Labels["op"], s.Count,
			durCol(s.MeanSec), durCol(s.P50Sec), durCol(s.P99Sec), durCol(s.P999Sec))
	}
}

// renderTrace prints the request tracer's keep/drop pressure when tracing
// is enabled (bpw_trace_* present): how many requests were seen, how many
// traces were retained head-sampled vs tail-kept, and the loss counters.
func renderTrace(t tree) {
	if len(t["bpw_trace_started_total"]) == 0 {
		return
	}
	fmt.Printf("trace  seen %.0f  sampled %.0f  kept %.0f  tail %.0f  discarded %.0f  xthread %.0f  spandrops %.0f  ringdrops %.0f\n",
		t.val("bpw_trace_started_total"), t.val("bpw_trace_sampled_total"),
		t.val("bpw_trace_kept_total"), t.val("bpw_trace_kept_tail_total"),
		t.val("bpw_trace_discarded_total"), t.val("bpw_trace_emitted_total"),
		t.val("bpw_trace_span_drops_total"), t.val("bpw_trace_ring_drops_total"))
}

// renderServer prints a one-line network section when the endpoint
// belongs to a bpserver (bpw_server_* series present). Rates are deltas
// like the pool line's; totals on the first poll.
func renderServer(t, prev tree, dt time.Duration) {
	if len(t["bpw_server_conns_accepted_total"]) == 0 {
		return
	}
	reqs := t.sum("bpw_server_requests_total")
	in := t.val("bpw_server_bytes_in_total")
	out := t.val("bpw_server_bytes_out_total")
	reqRate, inRate, outRate := reqs, in, out
	if prev != nil && dt > 0 {
		reqRate = (reqs - prev.sum("bpw_server_requests_total")) / dt.Seconds()
		inRate = (in - prev.val("bpw_server_bytes_in_total")) / dt.Seconds()
		outRate = (out - prev.val("bpw_server_bytes_out_total")) / dt.Seconds()
	}
	state := "serving"
	if t.val("bpw_server_draining") > 0 {
		state = "DRAINING"
	}
	fmt.Printf("server  %s  conns %.0f/%.0f  req/s %.0f  in %.1f MB/s  out %.1f MB/s  inflight %.0f  badframes %.0f  wtimeouts %.0f  drained %.0f\n",
		state,
		t.val("bpw_server_conns_active"), t.val("bpw_server_max_conns"),
		reqRate, inRate/1e6, outRate/1e6,
		t.val("bpw_server_inflight"),
		t.val("bpw_server_bad_frames_total"),
		t.val("bpw_server_write_timeouts_total"),
		t.val("bpw_server_drained_conns_total"))
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:6060", "obs endpoint address (host:port)")
		interval = flag.Duration("interval", time.Second, "poll interval")
		once     = flag.Bool("once", false, "print one sample and exit")
	)
	flag.Parse()

	var prev tree
	last := time.Now()
	for {
		t, err := fetch(*addr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bpstat:", err)
			os.Exit(1)
		}
		now := time.Now()
		render(t, prev, now.Sub(last))
		renderServer(t, prev, now.Sub(last))
		renderLatency(t)
		renderTrace(t)
		if *once {
			return
		}
		prev, last = t, now
		time.Sleep(*interval)
		fmt.Println()
	}
}
