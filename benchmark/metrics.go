package main

import (
	"math"

	"bpwrapper"
)

// metricDef names one reported number. BENCHMARK.json lists the same names;
// a test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what the two user groups — embedded pool callers and wire
// clients — see. Every workload reports all of them, from the untraced pass.
// Failed operations are not a metric here: they are the result's
// failed/attempted pair, and must be zero on these workloads. The two timings
// are quiet-host numbers (see quiet in stats.go): what the best tenth of the
// run's 50 ms slices reached. The tail of the request is reported per layer
// and not gated: on this host it is the neighbours', not the program's
// (client.req_p95_us; see README, "Bounds and spread").
var endToEnd = []metricDef{
	{"pages_per_s", "pages/s", higher, 0.25},
	{"req_p50_us", "us", lower, 0.25},
	{"hit_ratio", "ratio", higher, 0.01},
	{"live_heap_mb", "MB", lower, 0.05},
	{"setup_s", "s", lower, 0.25},
}

// perLayer lists every per-layer metric: isolated legs, in-run counters, and
// the traced pass's ledger. The README's table says which end-to-end metric
// each is predicted to move, on which workload.
func perLayer() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	// isolated legs
	add("ms", lower, "host.calib_alu_ms")
	add("ns", lower, "host.calib_chase1m_ns", "host.calib_copy8k_ns", "host.calib_echo_rtt_ns")
	add("us", lower, "host.timer_tick_us")
	add("ns", lower, "host.clock_ns")
	for _, p := range bpwrapper.PolicyNames() {
		add("ns", lower, "replacer.hit_ns."+p, "replacer.admit_ns."+p)
	}
	add("ns", lower, "replacer.prefetch_ns."+productPolicy,
		"core.hit_ns.direct", "core.hit_ns.batched", "core.hit_ns.batched_prefetch", "core.hit_ns.fc", "core.miss_ns.batched",
		"buffer.get_hit_ns", "buffer.get_hit_ns.nowrap", "buffer.getwrite_hit_ns", "buffer.get_miss_clean_ns", "buffer.get_miss_dirty_ns")
	add("count", lower, "buffer.allocs_per_get_hit", "buffer.allocs_per_get_miss")
	add("ns", lower, "storage.mem_read_ns", "storage.mem_write_ns")
	add("count", lower, "storage.allocs_per_write")
	add("ns", lower, "page.stamp_ns", "page.checksum_ns",
		"server.get_rtt_ns", "server.put_rtt_ns", "server.do16_get_ns_per_op", "server.do16_put_ns_per_op")
	add("count", lower, "server.allocs_per_get", "server.allocs_per_do16_op")
	add("B", lower, "server.bytes_in_per_get", "server.bytes_out_per_get")
	add("ns", lower, "server.wire_overhead_ns")
	// in-run counters: deltas of the public Stats() over the untraced phase
	add("1/Mpage", lower, "core.lock_acq_per_mpage", "core.lock_contended_per_mpage", "core.tryfail_per_mpage",
		"core.forced_per_mpage", "core.dropped_per_mpage")
	add("count", higher, "core.batch_mean")
	add("ns", lower, "core.lock_wait_ns_per_page")
	add("share", higher, "buffer.hitpath_fast_share")
	add("1/Mpage", lower, "buffer.hitpath_fallback_per_mpage", "buffer.bucket_lock_per_mpage", "buffer.frame_lock_per_mpage",
		"buffer.shed_per_mpage")
	add("1/kpage", lower, "buffer.evictions_per_kpage")
	add("count", lower, "buffer.writeback_failures")
	add("pages/s", higher, "buffer.bgwriter_pages_per_s")
	add("1/kpage", lower, "storage.reads_per_kpage", "storage.writes_per_kpage")
	add("ratio", lower, "storage.write_amp")
	add("B", lower, "server.bytes_in_per_op", "server.bytes_out_per_op")
	add("count", lower, "server.bad_frames", "runtime.gc_cycles")
	add("ms", lower, "runtime.gc_pause_total_ms")
	add("share", lower, "runtime.gc_cpu_share")
	add("count", lower, "runtime.mallocs_per_page")
	add("B", lower, "runtime.alloc_b_per_page")
	add("pages/s", higher, "client.pages_per_s_median")
	add("us", lower, "client.req_p50_us_median", "client.req_p95_us", "client.req_p99_us", "client.req_p999_us", "client.req_max_us")
	add("share", lower, "client.slice_iqr_share")
	// traced pass: the additive ledger
	add("ns", lower, "trace.client_call_ns_per_page", "trace.pool_ns_per_page", "trace.replacer_ns_per_page",
		"trace.storage_ns_per_page", "trace.buffer_core_self_ns_per_page", "trace.server_self_ns_per_page")
	add("share", lower, "trace.unattributed_share", "trace.overhead_share")
	return defs
}

// ratio is a/b, or 0 when nothing was counted: a rate of nothing is
// reported as 0, not as NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndMetrics reduces the untraced pass to the user-visible metrics.
func endToEndMetrics(p passResult, setups []float64) map[string]measurement {
	hits := float64(p.after.pool.Hits - p.before.pool.Hits)
	misses := float64(p.after.pool.Misses - p.before.pool.Misses)
	return map[string]measurement{
		"pages_per_s":  quiet(p.rates, "pages/s", higher),
		"req_p50_us":   quiet(p.p50, "us", lower),
		"hit_ratio":    single(ratio(hits, hits+misses), "ratio"),
		"live_heap_mb": single(float64(p.liveHeapBytes)/1e6, "MB"),
		"setup_s":      quiet(setups, "s", lower),
	}
}

// inRunCounters turns the Stats() deltas around a phase into per-page rates.
func inRunCounters(p passResult) map[string]float64 {
	pages := float64(p.pages())
	perM, perK := ratio(1e6, pages), ratio(1e3, pages)
	b, a := p.before, p.after
	d := func(before, after int64) float64 { return float64(after - before) }
	w0, w1 := b.pool.Wrapper, a.pool.Wrapper
	misses := d(b.pool.Misses, a.pool.Misses)
	devWrites := d(b.pool.Device.Writes, a.pool.Device.Writes)
	gcCPU, cpu := a.gc-b.gc, a.cpu-b.cpu
	rates := summarize(p.rates, "")
	m := map[string]float64{
		"core.lock_acq_per_mpage":       d(w0.Lock.Acquisitions, w1.Lock.Acquisitions) * perM,
		"core.lock_contended_per_mpage": d(w0.Lock.Contentions, w1.Lock.Contentions) * perM,
		"core.tryfail_per_mpage":        d(w0.Lock.TryFailures, w1.Lock.TryFailures) * perM,
		"core.forced_per_mpage":         d(w0.ForcedLocks, w1.ForcedLocks) * perM,
		"core.dropped_per_mpage":        d(w0.Dropped, w1.Dropped) * perM,
		"core.batch_mean":               ratio(d(w0.Committed, w1.Committed), d(w0.Commits, w1.Commits)),
		"core.lock_wait_ns_per_page":    ratio(float64(w1.Lock.WaitTime-w0.Lock.WaitTime), pages),

		"buffer.hitpath_fast_share":         ratio(d(b.pool.HitpathFast, a.pool.HitpathFast), d(b.pool.Hits, a.pool.Hits)),
		"buffer.hitpath_fallback_per_mpage": d(b.pool.HitpathFallbacks, a.pool.HitpathFallbacks) * perM,
		"buffer.bucket_lock_per_mpage":      d(b.pool.BucketLockAcqs, a.pool.BucketLockAcqs) * perM,
		"buffer.frame_lock_per_mpage":       d(b.pool.FrameLockAcqs, a.pool.FrameLockAcqs) * perM,
		"buffer.shed_per_mpage":             d(b.pool.Shed, a.pool.Shed) * perM,
		// a miss that did not take a free frame evicted a page
		"buffer.evictions_per_kpage":  (misses - float64(b.pool.Free-a.pool.Free)) * perK,
		"buffer.writeback_failures":   d(b.pool.WriteBackFailures, a.pool.WriteBackFailures),
		"buffer.bgwriter_pages_per_s": d(b.bw.Written, a.bw.Written) / p.secs,

		"storage.reads_per_kpage":  d(b.pool.Device.Reads, a.pool.Device.Reads) * perK,
		"storage.writes_per_kpage": devWrites * perK,
		"storage.write_amp":        ratio(devWrites, float64(p.writes)),

		"server.bytes_in_per_op":  ratio(d(b.srv.BytesIn, a.srv.BytesIn), pages),
		"server.bytes_out_per_op": ratio(d(b.srv.BytesOut, a.srv.BytesOut), pages),
		"server.bad_frames":       d(b.srv.BadFrames, a.srv.BadFrames),

		"runtime.gc_cycles":         float64(a.mem.NumGC - b.mem.NumGC),
		"runtime.gc_pause_total_ms": float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs) / 1e6,
		"runtime.gc_cpu_share":      ratio(gcCPU, cpu),
		"runtime.mallocs_per_page":  ratio(float64(a.mem.Mallocs-b.mem.Mallocs), pages),
		"runtime.alloc_b_per_page":  ratio(float64(a.mem.TotalAlloc-b.mem.TotalAlloc), pages),

		// What a caller saw with the host's interference left in: medians
		// over the slices, the tail over all the phase's requests.
		"client.pages_per_s_median": rates.Value,
		"client.req_p50_us_median":  median(p.p50),
		"client.req_p95_us":         p.p95,
		"client.req_p99_us":         p.p99,
		"client.req_p999_us":        p.p999,
		"client.req_max_us":         p.maxUS,
		"client.slice_iqr_share":    rates.iqrShare(),
	}
	if math.IsNaN(m["client.req_p50_us_median"]) { // no slice had enough requests
		m["client.req_p50_us_median"] = 0
	}
	return m
}

// callNSPerPage is what the harness's own clocked calls cost per page, the
// clock's cost taken out.
func callNSPerPage(p passResult, clockNS float64) float64 {
	if p.clocked == 0 {
		return 0
	}
	return (float64(p.busyNS)/float64(p.clocked) - clockNS) / float64(p.wl.burst)
}

// ledger builds the additive decomposition of a request. For an in-process
// workload the harness's call is the pool's; for a wire workload the pool's
// part is priced on a twin: the same stream replayed against an identically
// built in-process pool. What the rows do not cover is reported, not hidden.
func ledger(traced passResult, twin *passResult, untracedRate, clockNS float64) map[string]float64 {
	pages := float64(traced.pages())
	wall := ratio(float64(traced.workers)*traced.secs*1e9, pages)
	call := callNSPerPage(traced, clockNS)
	pool, poolPass := call, traced
	if twin != nil {
		pool, poolPass = callNSPerPage(*twin, clockNS), *twin
	}
	poolPages := float64(poolPass.pages())
	repl := ratio(poolPass.replacer.estimateNS(clockNS), poolPages)
	stor := ratio(poolPass.storage.estimateNS(clockNS), poolPages)
	return map[string]float64{
		"trace.client_call_ns_per_page":      call,
		"trace.pool_ns_per_page":             pool,
		"trace.replacer_ns_per_page":         repl,
		"trace.storage_ns_per_page":          stor,
		"trace.buffer_core_self_ns_per_page": pool - repl - stor,
		"trace.server_self_ns_per_page":      call - pool,
		"trace.unattributed_share":           ratio(wall-call, wall),
		"trace.overhead_share":               1 - ratio(quiet(traced.rates, "", higher).Value, untracedRate),
	}
}
