package core

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"bpwrapper/internal/page"
	"bpwrapper/internal/reqtrace"
)

// roundPolicy is the recording LRU plus what the accounting table needs on
// top of hits and admits: evictions in the op log, and a Prefetch that
// counts. One session goroutine runs at a time, so neither needs a lock.
type roundPolicy struct {
	*recordingPolicy
	walks int64
}

func (p *roundPolicy) Evict() (page.PageID, bool) {
	v, ok := p.recordingPolicy.Evict()
	if ok {
		p.ops = append(p.ops, "e"+v.String())
	}
	return v, ok
}

func (p *roundPolicy) Prefetch([]page.PageID) { p.walks++ }

// roundWant is what one operation must have delivered and accounted for.
type roundWant struct {
	ops                         string // policy ops in order: h<n> hit, m<n> admit, e<n> evict, of page n
	acquisitions                int64  // lock-holding periods
	commits, try, forced, walks int64
	tryFails                    int64            // Lock.TryFailures (with flat combining, each a batch handed off)
	batchSizes                  int64            // BatchSizes observations
	runs                        int64            // CombineRuns observations: rounds that drained a published batch
	drained                     int64            // CombineRuns sum: published batches those rounds applied
	spans                       []reqtrace.Phase // of a head-sampled request
	slow                        bool             // an unsampled request is tail-armed by the wait
	blocks                      bool             // the op blocks until the held lock is released
	pending                     int              // Session.Pending afterwards
}

const (
	lw = reqtrace.PhaseLockWait
	po = reqtrace.PhasePolicyOp
)

// TestRoundAccounting is the accounting contract of the commit round, one
// row per {scheduler} × {way into the round}: the exact op order the policy
// saw, every counter the round owns, the batch-size and combiner-run
// observations and the spans. Each row runs twice, head-sampled
// (every span) and unsampled (only a slow wait arms the trace).
//
// Queue 4, threshold 2, six resident pages in an LRU of six; page 9 is the
// miss. "held" rows run with the policy lock taken by the test.
func TestRoundAccounting(t *testing.T) {
	type env struct {
		w     *Wrapper
		s, s2 *Session
	}
	hit := func(s *Session, ns ...uint64) {
		for _, n := range ns {
			s.Hit(pid(n), page.BufferTag{Page: pid(n)})
		}
	}
	// published leaves s (and s2) with a batch sitting in its slot: the
	// threshold is crossed while the lock is held, then the lock is freed.
	published := func(e *env, own bool) {
		e.w.lock.Lock()
		if own {
			hit(e.s, 1, 2)
		}
		hit(e.s2, 4, 5)
		e.w.lock.Unlock()
	}
	direct, batch := Config{}, Config{Batching: true}
	fc := Config{Batching: true, FlatCombining: true}

	rows := []struct {
		name  string
		cfg   Config
		held  bool
		setup func(*env)
		op    func(*env)
		want  roundWant
	}{
		// The threshold, lock free: the batch goes in on the first try.
		{name: "direct/threshold", cfg: direct,
			op: func(e *env) { hit(e.s, 1, 2) },
			want: roundWant{ops: "h1 h2", acquisitions: 2, commits: 2,
				spans: []reqtrace.Phase{lw, po, lw, po}}},
		{name: "batch/threshold", cfg: batch,
			op: func(e *env) { hit(e.s, 1, 2) },
			want: roundWant{ops: "h1 h2", acquisitions: 1, commits: 1, try: 1, batchSizes: 1,
				spans: []reqtrace.Phase{po}}},
		{name: "fc/threshold", cfg: fc,
			op: func(e *env) { hit(e.s, 1, 2) },
			want: roundWant{ops: "h1 h2", acquisitions: 1, commits: 1, try: 1, batchSizes: 1, runs: 1, drained: 1,
				spans: []reqtrace.Phase{po}}},

		// The threshold, lock held: block / keep recording / publish and
		// walk away.
		{name: "direct/threshold-held", cfg: direct, held: true,
			op: func(e *env) { hit(e.s, 1) },
			want: roundWant{ops: "h1", acquisitions: 1, commits: 1, blocks: true,
				spans: []reqtrace.Phase{lw, po}}},
		{name: "batch/threshold-held", cfg: batch, held: true,
			op:   func(e *env) { hit(e.s, 1, 2) },
			want: roundWant{pending: 2, tryFails: 1}},
		{name: "fc/threshold-held", cfg: fc, held: true,
			op:   func(e *env) { hit(e.s, 1, 2) },
			want: roundWant{pending: 2, tryFails: 1, batchSizes: 1}},

		// Nowhere left to record, lock held (a queue of one is full at once):
		// everyone blocks, and the walk runs first because the failed tries
		// have opened the gate.
		{name: "direct/full-held", cfg: direct, held: true,
			op: func(e *env) { hit(e.s, 1) },
			want: roundWant{ops: "h1", acquisitions: 1, commits: 1, blocks: true,
				spans: []reqtrace.Phase{lw, po}}},
		{name: "batch/full-held", cfg: batch, held: true,
			op: func(e *env) { hit(e.s, 1, 2, 3, 4) },
			want: roundWant{ops: "h1 h2 h3 h4", acquisitions: 1, commits: 1, forced: 1, walks: 3,
				tryFails: 3, batchSizes: 1, blocks: true, slow: true,
				spans: []reqtrace.Phase{lw, po}}},
		{name: "fc/full-held", cfg: fc, held: true,
			op: func(e *env) { hit(e.s, 1, 2, 3, 4, 5, 6) },
			want: roundWant{ops: "h1 h2 h3 h4 h5 h6", acquisitions: 1, commits: 1, forced: 1, walks: 1,
				tryFails: 1, batchSizes: 2, runs: 1, drained: 1, blocks: true, slow: true,
				spans: []reqtrace.Phase{lw, po}}},

		// Flush. Under flat combining: a published batch, one more hit
		// behind it, and another session's batch to take along.
		{name: "direct/flush", cfg: direct,
			op:   func(e *env) { e.s.Flush() },
			want: roundWant{}},
		{name: "batch/flush", cfg: batch,
			setup: func(e *env) { hit(e.s, 1) },
			op:    func(e *env) { e.s.Flush() },
			want: roundWant{ops: "h1", acquisitions: 1, commits: 1, forced: 1, batchSizes: 1, slow: true,
				spans: []reqtrace.Phase{lw, po}}},
		{name: "fc/flush", cfg: fc,
			setup: func(e *env) { published(e, true); hit(e.s, 3) },
			op:    func(e *env) { e.s.Flush() },
			want: roundWant{ops: "h1 h2 h3 h4 h5", acquisitions: 1, commits: 1, forced: 1, walks: 1,
				batchSizes: 1, runs: 1, drained: 2, slow: true,
				spans: []reqtrace.Phase{lw, po}}},

		// Miss. Under flat combining the session's own queue is empty: what
		// it applies is its published batch and the other session's.
		{name: "direct/miss", cfg: direct,
			op: func(e *env) { e.s.Miss(pid(9), page.BufferTag{}) },
			want: roundWant{ops: "m9", acquisitions: 1, slow: true,
				spans: []reqtrace.Phase{lw, po}}},
		{name: "batch/miss", cfg: batch,
			setup: func(e *env) { hit(e.s, 1) },
			op:    func(e *env) { e.s.Miss(pid(9), page.BufferTag{}) },
			want: roundWant{ops: "h1 m9", acquisitions: 1, commits: 1, batchSizes: 1, slow: true,
				spans: []reqtrace.Phase{lw, po}}},
		{name: "fc/miss", cfg: fc,
			setup: func(e *env) { published(e, true) },
			op:    func(e *env) { e.s.Miss(pid(9), page.BufferTag{}) },
			want: roundWant{ops: "h1 h2 m9 h4 h5", acquisitions: 1, commits: 1, walks: 1, runs: 1, drained: 2, slow: true,
				spans: []reqtrace.Phase{lw, po}}},

		// The slotted miss, handed no free slot: the eviction and the admit
		// in the one hold, as the frameless miss's admit is. Under flat
		// combining the session has nothing of its own at all: the hits it
		// applies are another session's.
		{name: "direct/missslot", cfg: direct,
			op: func(e *env) { e.s.MissSlot(pid(9), NoSlot, nil) },
			want: roundWant{ops: "e1 m9", acquisitions: 1, slow: true,
				spans: []reqtrace.Phase{lw, po}}},
		{name: "batch/missslot", cfg: batch,
			setup: func(e *env) { hit(e.s, 1) },
			op:    func(e *env) { e.s.MissSlot(pid(9), NoSlot, nil) },
			want: roundWant{ops: "h1 e2 m9", acquisitions: 1, commits: 1, batchSizes: 1, slow: true,
				spans: []reqtrace.Phase{lw, po}}},
		{name: "fc/missslot", cfg: fc,
			setup: func(e *env) { published(e, false) },
			op:    func(e *env) { e.s.MissSlot(pid(9), NoSlot, nil) },
			want: roundWant{ops: "e1 m9 h4 h5", acquisitions: 1, commits: 1, walks: 1, runs: 1, drained: 1, slow: true,
				spans: []reqtrace.Phase{lw, po}}},
	}

	for _, row := range rows {
		for _, sampled := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/sampled=%v", row.name, sampled), func(t *testing.T) {
				sampleEvery := 1 << 30
				if sampled {
					sampleEvery = 1
				}
				// An SLO of one tick: every armed trace is kept, so a kept
				// unsampled trace means exactly "a slow phase armed it".
				tr := reqtrace.New(reqtrace.Config{Enable: true, SampleEvery: sampleEvery, SLO: time.Nanosecond, Clock: testClock()})
				pol := &roundPolicy{recordingPolicy: newRecording(6)}
				cfg := row.cfg
				cfg.QueueSize, cfg.BatchThreshold, cfg.Prefetching = 4, 2, true
				cfg.Tracer = tr
				w := New(pol, cfg)
				for n := uint64(1); n <= 6; n++ {
					pol.inner.Admit(pid(n))
				}
				e := &env{w: w, s: w.NewSession(), s2: w.NewSession()}
				var a reqtrace.Active
				a.Init(tr)
				e.s.SetTrace(&a)
				if row.setup != nil {
					row.setup(e)
				}

				before, ops0, walks0 := w.Stats(), len(pol.ops), pol.walks
				sizes0, runs0 := w.BatchSizes().Count, w.CombineRuns()
				a.Begin()
				tid := a.ID()
				if row.held {
					w.lock.Lock()
					done := make(chan struct{})
					go func() { defer close(done); row.op(e) }()
					if row.want.blocks {
						for w.lock.Stats().Contentions == before.Lock.Contentions {
							runtime.Gosched()
						}
					} else {
						<-done
					}
					w.lock.Unlock()
					<-done
				} else {
					row.op(e)
				}
				if tid == 0 {
					tid = a.ID() // armed by a slow phase, if at all
				}
				a.End(1, nil)

				want := row.want
				var wantOps []string
				for _, op := range strings.Fields(want.ops) {
					n, _ := strconv.ParseUint(op[1:], 10, 64)
					wantOps = append(wantOps, op[:1]+pid(n).String())
				}
				if got := pol.ops[ops0:]; !slices.Equal(got, wantOps) {
					t.Errorf("policy saw %v, want %v", got, wantOps)
				}
				st := w.Stats()
				check := func(what string, got, want int64) {
					t.Helper()
					if got != want {
						t.Errorf("%s = %d, want %d", what, got, want)
					}
				}
				var mine int64 // the test's own hold
				if row.held {
					mine = 1
				}
				check("Lock.Acquisitions", st.Lock.Acquisitions-before.Lock.Acquisitions-mine, want.acquisitions)
				check("Commits", st.Commits-before.Commits, want.commits)
				check("TryCommits", st.TryCommits-before.TryCommits, want.try)
				check("ForcedLocks", st.ForcedLocks-before.ForcedLocks, want.forced)
				check("Lock.TryFailures", st.Lock.TryFailures-before.Lock.TryFailures, want.tryFails)
				check("PrefetchWalks", st.PrefetchWalks-before.PrefetchWalks, want.walks)
				check("policy walks", pol.walks-walks0, want.walks)
				check("BatchSizes.Count", w.BatchSizes().Count-sizes0, want.batchSizes)
				check("CombineRuns.Count", w.CombineRuns().Count-runs0.Count, want.runs)
				check("CombineRuns.Sum", w.CombineRuns().Sum-runs0.Sum, want.drained)
				check("Pending", int64(e.s.Pending()), int64(want.pending))

				var spans []reqtrace.Span
				for _, sp := range tr.Spans() {
					if sp.Trace == tid && tid != 0 && sp.Phase != reqtrace.PhaseRequest {
						spans = append(spans, sp)
					}
				}
				sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
				var phases []reqtrace.Phase
				for _, sp := range spans {
					phases = append(phases, sp.Phase)
				}
				wantPhases := want.spans
				if !sampled {
					wantPhases = nil
					if want.slow {
						wantPhases = []reqtrace.Phase{lw, po}
					}
				}
				if !slices.Equal(phases, wantPhases) {
					t.Errorf("spans %v, want %v", phases, wantPhases)
				}
				if got := tr.Snapshot().KeptTail > 0; !sampled && got != want.slow {
					t.Errorf("unsampled request tail-kept = %v, want %v", got, want.slow)
				}
			})
		}
	}
}
