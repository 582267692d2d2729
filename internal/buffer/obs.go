// Exposition bridge: the pool renders itself into an obs.Registry so that
// one /metrics scrape (or /debug/vars poll) sees what bpstat reads — lock
// contention, batch-size and combiner-run distributions, access counters,
// quarantine depth, flight-recorder pressure. The dependency points one
// way only: buffer imports obs, never the reverse.
package buffer

import (
	"fmt"
	"strings"

	"bpwrapper/internal/obs"
)

// recorderName labels the pool's flight recorder in dumps and on
// /debug/events.
const recorderName = "pool"

// healthHelp names each bpw_health_state value as HealthState.String does.
var healthHelp = fmt.Sprintf("pool health: %d %v, %d %v", Healthy, Healthy, ReadOnly, ReadOnly)

// RegisterObs registers the pool's collector and flight recorder with reg.
// A scrape renders one Stats snapshot, so it costs what Stats does (a brief
// policy-lock hold and a free-list lock) — fine at scrape cadence, not
// meant for hot paths.
func (p *Pool) RegisterObs(reg *obs.Registry) {
	reg.Register(p.collect)
	// The request tracer (nil when tracing is off — RegisterTracer ignores
	// it) powers /debug/traces and the bpw_trace_* counters.
	reg.RegisterTracer(p.tracer)
	if rec := p.events; rec != nil {
		reg.RegisterRecorder(recorderName, rec)
	}
}

// collect renders one Stats snapshot as the full metric tree, beside the
// lock histograms, batch and combine-run distributions and flight-recorder
// counts.
func (p *Pool) collect(emit func(obs.Metric)) {
	c := func(name, help string, labels [][2]string, v float64) {
		emit(obs.Metric{Name: name, Help: help, Type: obs.Counter, Labels: labels, Value: v})
	}
	g := func(name, help string, labels [][2]string, v float64) {
		emit(obs.Metric{Name: name, Help: help, Type: obs.Gauge, Labels: labels, Value: v})
	}

	ss := p.Stats()
	g("bpw_policy_in_use", "replacement policy installed in the pool (value always 1)",
		[][2]string{{"policy", ss.Policy}}, 1)
	ws := ss.Wrapper

	// Lock contention: scalar totals plus the sampled distributions.
	c("bpw_lock_acquisitions_total", "policy-lock acquisitions", nil, float64(ws.Lock.Acquisitions))
	c("bpw_lock_contentions_total", "policy-lock acquisitions that blocked", nil, float64(ws.Lock.Contentions))
	c("bpw_lock_try_failures_total", "failed TryLock attempts at the batch threshold", nil, float64(ws.Lock.TryFailures))
	wait, hold := p.wrapper.LockHistograms()
	emit(obs.Metric{Name: "bpw_lock_wait_seconds", Help: "contended policy-lock wait time",
		Type: obs.Histogram, Hist: &wait})
	emit(obs.Metric{Name: "bpw_lock_hold_seconds", Help: "sampled policy-lock holding time",
		Type: obs.Histogram, Hist: &hold})

	// Commit-protocol activity (Sections III-A/III-B of the paper).
	c("bpw_prefetch_walks_total", "pre-lock metadata walks (run only after the policy lock showed contention)", nil, float64(ws.PrefetchWalks))
	bs := p.wrapper.BatchSizes()
	emit(obs.Metric{Name: "bpw_batch_size", Help: "entries per committed batch",
		Type: obs.Histogram, Dist: &bs})
	cr := p.wrapper.CombineRuns()
	emit(obs.Metric{Name: "bpw_combine_run_length", Help: "published batches drained per combiner run",
		Type: obs.Histogram, Dist: &cr})

	// Buffer-manager state.
	c("bpw_hits_total", "buffer hits", nil, float64(ss.Hits))
	c("bpw_misses_total", "buffer misses", nil, float64(ss.Misses))

	// Hit-path anatomy (DESIGN.md §12): a retry storm or a rising
	// fallback rate means the optimistic seqlock path is degrading
	// into the locked path, visible live here and in bpstat.
	c("bpw_hitpath_fast_total", "hits served with zero mutex acquisitions", nil, float64(ss.HitpathFast))
	c("bpw_hitpath_retries_total", "optimistic probes retried after a torn seqlock read", nil, float64(ss.HitpathRetries))
	c("bpw_hitpath_fallbacks_total", "lookups that fell back to the bucket mutex", nil, float64(ss.HitpathFallbacks))
	g("bpw_dirty_pages", "dirty resident pages", nil, float64(ss.Dirty))
	g("bpw_quarantined_pages", "evicted pages parked because their write-back failed", nil, float64(ss.Quarantined))
	c("bpw_evict_writebacks_total", "dirty victims written to the device straight from their frame", nil, float64(ss.EvictWritebacks))
	const waitsHelp = "waits (by misses and invalidations) on a page another goroutine had in flight: on=load a device read, on=evict an eviction's write-back"
	c("bpw_miss_waits_total", waitsHelp, [][2]string{{"on", "load"}}, float64(ss.MissWaitsLoad))
	c("bpw_miss_waits_total", waitsHelp, [][2]string{{"on", "evict"}}, float64(ss.MissWaitsEvict))

	// Health and graceful degradation. The snapshot re-evaluates
	// health, so a dashboard sees transitions even on an idle pool (a
	// miss would otherwise have to arrive first).
	g("bpw_health_state", healthHelp, nil, float64(ss.Health))
	c("bpw_shed_total", "misses refused by admission control", nil, float64(ss.Shed))

	// Flight-recorder pressure: how much history has scrolled out (or
	// been torn) since startup.
	if rec := p.events; rec != nil {
		c("bpw_flight_dropped_total", "flight-recorder events overwritten or torn", nil, float64(rec.Dropped()))
	}
}

// FlightDump renders the pool's flight recorder as text, newest first, for
// failure reports (Close errors, torture-oracle dumps). It returns "" when
// recording is disabled, so callers can append it unconditionally.
func (p *Pool) FlightDump() string {
	var sb strings.Builder
	if rec := p.events; rec != nil {
		rec.Dump(&sb, recorderName, 0)
	}
	return sb.String()
}
