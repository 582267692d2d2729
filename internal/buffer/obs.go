// Exposition bridge: the pool renders itself into an obs.Registry so that
// one /metrics scrape (or /debug/vars poll) sees every layer — lock
// contention, batch-size and combiner-run distributions, access counters,
// quarantine depth, write-back failures, flight-recorder pressure — plus
// the device counters. The dependency points one way only: buffer imports
// obs, never the reverse.
package buffer

import (
	"strings"

	"bpwrapper/internal/obs"
)

// recorderName labels the pool's flight recorder in dumps and on
// /debug/events.
const recorderName = "pool"

// RegisterObs registers the pool's collector and flight recorder with reg.
// A scrape renders one Stats snapshot, so it costs what Stats does (a brief
// policy-lock hold and a free-list lock) — fine at scrape cadence, not
// meant for hot paths.
func (p *Pool) RegisterObs(reg *obs.Registry) {
	reg.Register(p.collect)
	// The request tracer (nil when tracing is off — RegisterTracer ignores
	// it) powers /debug/traces and the bpw_trace_* counters.
	reg.RegisterTracer("pool", p.tracer)
	if rec := p.sh.events; rec != nil {
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

	ss, sh := p.Stats(), p.sh
	g("bpw_policy_in_use", "replacement policy installed in the pool (value always 1)",
		[][2]string{{"policy", ss.Policy}}, 1)
	ws := ss.Wrapper

	// Lock contention: scalar totals plus the sampled distributions.
	c("bpw_lock_acquisitions_total", "policy-lock acquisitions", nil, float64(ws.Lock.Acquisitions))
	c("bpw_lock_contentions_total", "policy-lock acquisitions that blocked", nil, float64(ws.Lock.Contentions))
	c("bpw_lock_try_failures_total", "failed TryLock attempts at the batch threshold", nil, float64(ws.Lock.TryFailures))
	c("bpw_lock_wait_seconds_total", "total time blocked on the policy lock", nil, ws.Lock.WaitTime.Seconds())
	c("bpw_lock_hold_seconds_total", "estimated total policy-lock holding time (sampled)", nil, ws.Lock.HoldTime.Seconds())
	if lp := sh.wrapper.LockProfile(); lp != nil {
		if lp.Wait != nil {
			hs := lp.Wait.Snapshot()
			emit(obs.Metric{Name: "bpw_lock_wait_seconds", Help: "contended policy-lock wait time",
				Type: obs.Histogram, Hist: &hs})
		}
		if lp.Hold != nil {
			hs := lp.Hold.Snapshot()
			emit(obs.Metric{Name: "bpw_lock_hold_seconds", Help: "sampled policy-lock holding time",
				Type: obs.Histogram, Hist: &hs})
		}
	}

	// Commit-protocol activity (Sections III-A/III-B of the paper).
	c("bpw_commits_total", "commit rounds (lock-holding periods for hits)", nil, float64(ws.Commits))
	c("bpw_committed_entries_total", "batched hit entries applied to the policy", nil, float64(ws.Committed))
	c("bpw_dropped_entries_total", "hit entries dropped by commit-time validation", nil, float64(ws.Dropped))
	c("bpw_forced_locks_total", "commits that needed a blocking lock (queue full)", nil, float64(ws.ForcedLocks))
	c("bpw_try_commits_total", "commits obtained via TryLock at the threshold", nil, float64(ws.TryCommits))
	c("bpw_prefetch_walks_total", "pre-lock metadata walks (run only after the policy lock showed contention)", nil, float64(ws.PrefetchWalks))
	c("bpw_combined_batches_total", "other sessions' batches applied by a combiner", nil, float64(ws.CombinedBatches))
	c("bpw_combined_entries_total", "entries in combined batches", nil, float64(ws.CombinedEntries))
	c("bpw_handoff_saved_total", "publishes handed to a combiner instead of blocking", nil, float64(ws.HandoffSaved))
	bs := sh.wrapper.BatchSizes()
	emit(obs.Metric{Name: "bpw_batch_size", Help: "entries per committed batch",
		Type: obs.Histogram, Dist: &bs})
	cr := sh.wrapper.CombineRuns()
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
	c("bpw_bucket_lock_acquisitions_total", "bucket-mutex acquisitions on access paths", nil, float64(ss.BucketLockAcqs))
	c("bpw_frame_lock_acquisitions_total", "frame write-mutex acquisitions", nil, float64(ss.FrameLockAcqs))
	g("bpw_frames", "page slots in the pool", nil, float64(ss.Frames))
	g("bpw_free_frames", "slots on the free list", nil, float64(ss.Free))
	g("bpw_dirty_pages", "dirty resident pages", nil, float64(ss.Dirty))
	g("bpw_quarantined_pages", "evicted pages parked because their write-back failed", nil, float64(ss.Quarantined))
	g("bpw_resident_pages", "pages tracked by the replacement policy, loads in flight included", nil, float64(ss.Resident))
	c("bpw_writeback_failures_total", "failed write-back attempts", nil, float64(ss.WriteBackFailures))
	c("bpw_evict_writebacks_total", "dirty victims written to the device straight from their frame", nil, float64(ss.EvictWritebacks))
	const waitsHelp = "waits (by misses and invalidations) on a page another goroutine had in flight: on=load a device read, on=evict an eviction's write-back"
	c("bpw_miss_waits_total", waitsHelp, [][2]string{{"on", "load"}}, float64(ss.MissWaitsLoad))
	c("bpw_miss_waits_total", waitsHelp, [][2]string{{"on", "evict"}}, float64(ss.MissWaitsEvict))

	// Health and graceful degradation. The snapshot re-evaluates
	// health, so a dashboard sees transitions even on an idle pool (a
	// miss would otherwise have to arrive first).
	g("bpw_health_state", "pool health: 0 healthy, 1 degraded, 2 read-only", nil, float64(ss.Health))
	c("bpw_shed_total", "misses refused by admission control", nil, float64(ss.Shed))
	c("bpw_health_transitions_total", "health state changes", nil, float64(ss.HealthTransitions))
	c("bpw_quarantine_refusals_total", "dirty victims an eviction passed over because the quarantine was full", nil, float64(ss.QuarantineRefusals))
	g("bpw_miss_inflight", "admitted misses currently in flight", nil, float64(ss.MissInflight))
	c("bpw_combiner_panics_total", "panics contained inside combiner drains", nil, float64(ws.CombinerPanics))

	// Flight-recorder pressure: how much history the ring has seen and
	// how much has scrolled out (or been torn) since startup.
	if rec := sh.events; rec != nil {
		c("bpw_flight_events_total", "events recorded by the flight recorder", nil, float64(rec.Seq()))
		c("bpw_flight_dropped_total", "flight-recorder events overwritten or torn", nil, float64(rec.Dropped()))
	}

	ds := ss.Device
	c("bpw_device_reads_total", "page reads issued to the device", nil, float64(ds.Reads))
	c("bpw_device_writes_total", "page writes issued to the device", nil, float64(ds.Writes))
	c("bpw_device_read_seconds_total", "wall time in ReadPage", nil, ds.ReadTime.Seconds())
	c("bpw_device_write_seconds_total", "wall time in WritePage", nil, ds.WriteTime.Seconds())
	c("bpw_device_read_errors_total", "failed page reads", nil, float64(ds.ReadErrors))
	c("bpw_device_write_errors_total", "failed page writes", nil, float64(ds.WriteErrors))
	c("bpw_device_retries_total", "retry attempts by a RetryDevice", nil, float64(ds.Retries))
	c("bpw_device_corrupt_pages_total", "checksum mismatches detected", nil, float64(ds.CorruptPages))
}

// RegisterObs adds the background writer's counters to reg under the
// bpw_bgwriter_* names.
func (w *BackgroundWriter) RegisterObs(reg *obs.Registry) {
	reg.Register(func(emit func(obs.Metric)) {
		s := w.Stats()
		for _, m := range []struct {
			name, help string
			v          int64
		}{
			{"bpw_bgwriter_rounds_total", "completed write-back rounds", s.Rounds},
			{"bpw_bgwriter_written_total", "pages made durable by the writer", s.Written},
			{"bpw_bgwriter_write_failures_total", "failed background write attempts", s.WriteFailures},
			{"bpw_bgwriter_backoff_rounds_total", "rounds that triggered backoff", s.BackoffRounds},
			{"bpw_bgwriter_panic_recoveries_total", "round panics contained by the writer", s.PanicRecoveries},
		} {
			emit(obs.Metric{Name: m.name, Help: m.help, Type: obs.Counter, Value: float64(m.v)})
		}
	})
}

// FlightDump renders the pool's flight recorder as text, newest first, for
// failure reports (Close errors, torture-oracle dumps). It returns "" when
// recording is disabled, so callers can append it unconditionally.
func (p *Pool) FlightDump() string {
	var sb strings.Builder
	if rec := p.sh.events; rec != nil {
		rec.Dump(&sb, recorderName, 0)
	}
	return sb.String()
}
