// Exposition bridge: the pool walks its shards into an obs.Registry so
// that one /metrics scrape (or /debug/vars poll) sees every layer —
// per-shard lock contention, batch-size and combiner-run distributions,
// access counters, quarantine depth, write-back failures, flight-recorder
// pressure — plus the pool-level device counters. The dependency points
// one way only: buffer imports obs, never the reverse.
package buffer

import (
	"fmt"
	"strconv"
	"strings"

	"bpwrapper/internal/obs"
)

// RegisterObs registers the pool's collectors and per-shard flight
// recorders with reg. A scrape renders one Stats snapshot, so it costs
// what Stats does (a brief policy-lock hold and a free-list lock per
// shard) — fine at scrape cadence, not meant for hot paths.
func (p *Pool) RegisterObs(reg *obs.Registry) {
	reg.Register(p.collect)
	// The request tracer (nil when tracing is off — RegisterTracer ignores
	// it) powers /debug/traces and the bpw_trace_* counters.
	reg.RegisterTracer("pool", p.tracer)
	for i, sh := range p.shards {
		if rec := sh.events; rec != nil {
			reg.RegisterRecorder(recorderName(i), rec)
		}
	}
}

// recorderName labels shard i's flight recorder.
func recorderName(i int) string { return fmt.Sprintf("shard %d", i) }

// collect renders one Stats snapshot as the full metric tree, beside each
// shard's lock histograms, batch and combine-run distributions and
// flight-recorder counts. Series are labelled {shard="i"}; pool-level
// series (shard count, device counters) carry no labels.
func (p *Pool) collect(emit func(obs.Metric)) {
	c := func(name, help string, labels [][2]string, v float64) {
		emit(obs.Metric{Name: name, Help: help, Type: obs.Counter, Labels: labels, Value: v})
	}
	g := func(name, help string, labels [][2]string, v float64) {
		emit(obs.Metric{Name: name, Help: help, Type: obs.Gauge, Labels: labels, Value: v})
	}

	st := p.Stats()
	g("bpw_shards", "hash partitions in the pool", nil, float64(st.Shards))

	for i, ss := range st.PerShard {
		sh := p.shards[i]
		l := [][2]string{{"shard", strconv.Itoa(i)}}
		g("bpw_policy_in_use", "replacement policy installed in the shard (value always 1)",
			append(l[:1:1], [2]string{"policy", ss.Policy}), 1)
		ws := ss.Wrapper

		// Lock contention: scalar totals plus the sampled distributions.
		c("bpw_lock_acquisitions_total", "policy-lock acquisitions", l, float64(ws.Lock.Acquisitions))
		c("bpw_lock_contentions_total", "policy-lock acquisitions that blocked", l, float64(ws.Lock.Contentions))
		c("bpw_lock_try_failures_total", "failed TryLock attempts at the batch threshold", l, float64(ws.Lock.TryFailures))
		c("bpw_lock_wait_seconds_total", "total time blocked on the policy lock", l, ws.Lock.WaitTime.Seconds())
		c("bpw_lock_hold_seconds_total", "estimated total policy-lock holding time (sampled)", l, ws.Lock.HoldTime.Seconds())
		if lp := sh.wrapper.LockProfile(); lp != nil {
			if lp.Wait != nil {
				hs := lp.Wait.Snapshot()
				emit(obs.Metric{Name: "bpw_lock_wait_seconds", Help: "contended policy-lock wait time",
					Type: obs.Histogram, Labels: l, Hist: &hs})
			}
			if lp.Hold != nil {
				hs := lp.Hold.Snapshot()
				emit(obs.Metric{Name: "bpw_lock_hold_seconds", Help: "sampled policy-lock holding time",
					Type: obs.Histogram, Labels: l, Hist: &hs})
			}
		}

		// Commit-protocol activity (Sections III-A/III-B of the paper).
		c("bpw_commits_total", "commit rounds (lock-holding periods for hits)", l, float64(ws.Commits))
		c("bpw_committed_entries_total", "batched hit entries applied to the policy", l, float64(ws.Committed))
		c("bpw_dropped_entries_total", "hit entries dropped by commit-time validation", l, float64(ws.Dropped))
		c("bpw_forced_locks_total", "commits that needed a blocking lock (queue full)", l, float64(ws.ForcedLocks))
		c("bpw_try_commits_total", "commits obtained via TryLock at the threshold", l, float64(ws.TryCommits))
		c("bpw_prefetch_walks_total", "pre-lock metadata walks (run only after the policy lock showed contention)", l, float64(ws.PrefetchWalks))
		c("bpw_combined_batches_total", "other sessions' batches applied by a combiner", l, float64(ws.CombinedBatches))
		c("bpw_combined_entries_total", "entries in combined batches", l, float64(ws.CombinedEntries))
		c("bpw_handoff_saved_total", "publishes handed to a combiner instead of blocking", l, float64(ws.HandoffSaved))
		bs := sh.wrapper.BatchSizes()
		emit(obs.Metric{Name: "bpw_batch_size", Help: "entries per committed batch",
			Type: obs.Histogram, Labels: l, Dist: &bs})
		cr := sh.wrapper.CombineRuns()
		emit(obs.Metric{Name: "bpw_combine_run_length", Help: "published batches drained per combiner run",
			Type: obs.Histogram, Labels: l, Dist: &cr})

		// Buffer-manager state.
		c("bpw_hits_total", "buffer hits", l, float64(ss.Hits))
		c("bpw_misses_total", "buffer misses", l, float64(ss.Misses))

		// Hit-path anatomy (DESIGN.md §12): a retry storm or a rising
		// fallback rate means the optimistic seqlock path is degrading
		// into the locked path, visible live here and in bpstat.
		c("bpw_hitpath_fast_total", "hits served with zero mutex acquisitions", l, float64(ss.HitpathFast))
		c("bpw_hitpath_retries_total", "optimistic probes retried after a torn seqlock read", l, float64(ss.HitpathRetries))
		c("bpw_hitpath_fallbacks_total", "lookups that fell back to the bucket mutex", l, float64(ss.HitpathFallbacks))
		c("bpw_bucket_lock_acquisitions_total", "bucket-mutex acquisitions on access paths", l, float64(ss.BucketLockAcqs))
		c("bpw_frame_lock_acquisitions_total", "frame write-mutex acquisitions", l, float64(ss.FrameLockAcqs))
		g("bpw_frames", "page slots owned by the shard", l, float64(ss.Frames))
		g("bpw_free_frames", "slots on the free list", l, float64(ss.Free))
		g("bpw_dirty_pages", "dirty resident pages", l, float64(ss.Dirty))
		g("bpw_quarantined_pages", "evicted pages parked because their write-back failed", l, float64(ss.Quarantined))
		g("bpw_resident_pages", "pages tracked by the replacement policy, loads in flight included", l, float64(ss.Resident))
		c("bpw_writeback_failures_total", "failed write-back attempts", l, float64(ss.WriteBackFailures))
		c("bpw_evict_writebacks_total", "dirty victims written to the device straight from their frame", l, float64(ss.EvictWritebacks))
		const waitsHelp = "waits (by misses and invalidations) on a page another goroutine had in flight: on=load a device read, on=evict an eviction's write-back"
		c("bpw_miss_waits_total", waitsHelp, append(l[:1:1], [2]string{"on", "load"}), float64(ss.MissWaitsLoad))
		c("bpw_miss_waits_total", waitsHelp, append(l[:1:1], [2]string{"on", "evict"}), float64(ss.MissWaitsEvict))

		// Health and graceful degradation. The snapshot re-evaluates
		// health, so a dashboard sees transitions even on an idle shard (a
		// miss would otherwise have to arrive first).
		g("bpw_health_state", "shard health: 0 healthy, 1 degraded, 2 read-only", l, float64(ss.Health))
		c("bpw_shed_total", "misses refused by admission control", l, float64(ss.Shed))
		c("bpw_health_transitions_total", "health state changes", l, float64(ss.HealthTransitions))
		c("bpw_quarantine_refusals_total", "dirty victims an eviction passed over because the quarantine was full", l, float64(ss.QuarantineRefusals))
		g("bpw_miss_inflight", "admitted misses currently in flight", l, float64(ss.MissInflight))
		c("bpw_combiner_panics_total", "panics contained inside combiner drains", l, float64(ws.CombinerPanics))

		// Flight-recorder pressure: how much history the ring has seen and
		// how much has scrolled out (or been torn) since startup.
		if rec := sh.events; rec != nil {
			c("bpw_flight_events_total", "events recorded by the flight recorder", l, float64(rec.Seq()))
			c("bpw_flight_dropped_total", "flight-recorder events overwritten or torn", l, float64(rec.Dropped()))
		}
	}

	ds := st.Device
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

// FlightDump renders every shard's flight recorder as text, newest first,
// for failure reports (Close errors, torture-oracle dumps). It returns ""
// when recording is disabled, so callers can append it unconditionally.
func (p *Pool) FlightDump() string {
	var sb strings.Builder
	for i, sh := range p.shards {
		if rec := sh.events; rec != nil {
			rec.Dump(&sb, recorderName(i), 0)
		}
	}
	return sb.String()
}
