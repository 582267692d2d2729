package sim

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"bpwrapper/internal/core"
	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/workload"
)

// opLog records the effective policy operations in the order they reach the
// policy: h<page> a hit, m<page> an admit, v<page> the victim it evicted.
// Embedding the interface hides the policy's optional ones (lock-free hit,
// prefetch), so the model and the wrapper both treat it as a locked policy.
type opLog struct {
	replacer.Policy
	ops []string
}

func (l *opLog) Hit(id page.PageID) {
	l.ops = append(l.ops, "h"+id.String())
	l.Policy.Hit(id)
}

func (l *opLog) Admit(id page.PageID) (page.PageID, bool) {
	l.ops = append(l.ops, "m"+id.String())
	v, ok := l.Policy.Admit(id)
	if ok {
		l.ops = append(l.ops, "v"+v.String())
	}
	return v, ok
}

// evictionOrder empties the policy and returns the order the pages left in.
func (l *opLog) evictionOrder() []page.PageID {
	var order []page.PageID
	for {
		v, ok := l.Policy.Evict()
		if !ok {
			return order
		}
		order = append(order, v)
	}
}

// TestSimRoundMatchesCore holds the model's commit round to the wrapper's:
// one worker replays a seeded Zipf stream over fewer frames than pages, and
// the operations that reach its policy — hits on resident pages, admits,
// victims — must be, one for one, those core.Session.Hit / Miss / Flush
// deliver for the same stream, with the same pages left in the same eviction
// order. One worker's accesses reach the policy in stream order however they
// are batched, so the two agree exactly if and only if each side applies
// slot, then queue, then admit.
//
// The wrapper's lock is always free. The model's is not: an interferer holds
// it on and off, so that tries fail, a batch sits published while hits are
// recorded behind it, and full queues block — the rounds in which a wrong
// order shows. (Applying the queue before the slot in round fails the four
// flat-combining cases, admitting before the queue is applied every batched
// one; CHANGES.md PR 22 has both runs.)
func TestSimRoundMatchesCore(t *testing.T) {
	const pages, frames = 256, 208
	for _, policy := range []string{"lru", "2q"} {
		for _, sched := range []struct {
			name         string
			batching, fc bool
		}{{"direct", false, false}, {"batch", true, false}, {"fc", true, true}} {
			for _, q := range [][2]int{{8, 4}, {64, 32}} {
				if !sched.batching && q[0] != 8 {
					continue // no queue to size
				}
				t.Run(fmt.Sprintf("%s/%s/%d-%d", policy, sched.name, q[0], q[1]), func(t *testing.T) {
					wl := workload.NewZipf(workload.SyntheticConfig{Pages: pages})
					pr := DefaultParams()
					pr.IOLatency = 20_000 // a short disk: more accesses per virtual second
					cfg := Config{
						Procs: 1, Workers: 1, Policy: policy,
						Batching: sched.batching, FlatCombining: sched.fc,
						QueueSize: q[0], BatchThreshold: q[1],
						Workload: wl, Frames: frames, Seed: 7,
						Duration: 60_000_000, Params: &pr,
					}
					m, err := newMachine(cfg)
					if err != nil {
						t.Fatal(err)
					}
					model := &opLog{Policy: m.policy}
					m.policy = model
					l := m.locks[0]
					m.k.Spawn(func(p *Process) { // the interferer
						for p.Now() < cfg.Duration {
							l.Acquire(p, 0)
							p.Sleep(150_000)
							l.Release(p)
							p.Sleep(250_000)
						}
					})
					res := m.run()

					// The bite depends on these: misses with hits queued ahead
					// of them and, batched, tries that found the lock busy.
					if res.Misses == 0 || res.Hits == 0 {
						t.Fatalf("stream has %d hits, %d misses: no order to check", res.Hits, res.Misses)
					}
					if sched.batching && res.Lock.TryFailures == 0 {
						t.Fatal("no try ever failed: slot and queue were never both occupied")
					}
					if sched.fc && res.HandoffSaved == 0 {
						t.Fatal("no batch was ever left published")
					}

					factory := replacer.Factories()[policy]
					wrapper := &opLog{Policy: factory(frames)}
					cw := core.New(wrapper, core.Config{
						Batching: sched.batching, FlatCombining: sched.fc,
						QueueSize: q[0], BatchThreshold: q[1],
						// The model's residency check at commit, as a validator.
						Validate: func(batch []core.Entry) []core.Entry {
							live := batch[:0]
							for _, e := range batch {
								if wrapper.Contains(e.ID) {
									live = append(live, e)
								}
							}
							return live
						},
					})
					s := cw.NewSession()
					stream := wl.NewStream(0, cfg.Seed)
					var buf []workload.Access
					for i := int64(0); i < res.Txns; i++ {
						buf = stream.NextTxn(buf[:0])
						for _, a := range buf {
							if wrapper.Contains(a.Page) {
								s.Hit(a.Page, page.BufferTag{Page: a.Page})
							} else {
								s.Miss(a.Page, page.BufferTag{Page: a.Page})
							}
						}
					}
					s.Flush()

					if int64(len(model.ops)) < res.Accesses {
						t.Fatalf("%d ops for %d accesses", len(model.ops), res.Accesses)
					}
					for i := range model.ops {
						if i >= len(wrapper.ops) || model.ops[i] != wrapper.ops[i] {
							lo := max(i-6, 0)
							t.Fatalf("op %d of %d differs:\n model   ... %v\n wrapper ... %v", i, len(model.ops),
								model.ops[lo:min(i+3, len(model.ops))], wrapper.ops[lo:min(i+3, len(wrapper.ops))])
						}
					}
					if len(wrapper.ops) != len(model.ops) {
						t.Fatalf("wrapper issued %d ops, model %d", len(wrapper.ops), len(model.ops))
					}
					if a, b := model.evictionOrder(), wrapper.evictionOrder(); !slices.Equal(a, b) {
						t.Fatalf("final eviction order differs:\n model   %v\n wrapper %v", a, b)
					}
				})
			}
		}
	}
}

// pid is page n of the test table.
func pid(n uint64) page.PageID { return page.NewPageID(1, n) }

// roundWant is what one operation must have done to the machine.
type roundWant struct {
	ops string // policy ops in order: h<n> hit, m<n> admit, v<n> victim, of page n

	acq, tryFail, contended int64 // the policy lock, the test's own hold excluded
	qacq                    int64 // the shared queue's mutex
	committed, dropped      int64
	combined, handoff       int64 // CombinedBatches, HandoffSaved
	threshold               int   // movement of the worker's batch threshold
	pending                 int   // accesses still unapplied: slot + queue, or the shared queue

	// Virtual time charged to the worker: under the policy lock, and
	// everywhere else (waiting for a lock is not a charge).
	hold, outside Time
}

// TestSimRoundAccounting is the accounting contract of the model's commit
// round, the sibling of core's TestRoundAccounting: one row per {scheduler}
// × {way into the round}, each checking the order the policy saw, every
// counter the round owns, where the adaptive threshold went, and the virtual
// time charged, constant by constant.
//
// Queue 8, threshold 4, prefetching on, pages 1-8 resident in an LRU of
// eight; page 9 is the miss. "held" rows start with the policy lock taken by
// the test, which releases it a millisecond later.
func TestSimRoundAccounting(t *testing.T) {
	pr := DefaultParams()
	var (
		pf, try, ref = pr.PrefetchWork, pr.TryLock, pr.RefBit
		grab, warm   = pr.LockGrab, pr.LockWarmup
		op, missw    = pr.PolicyOp, pr.MissWork
		io           = pr.IOLatency
	)
	const holdFor = Time(1_000_000)

	type env struct {
		m     *machine
		w, w2 *simWorker
		p     *Process
	}
	hit := func(e *env, w *simWorker, ns ...uint64) {
		for _, n := range ns {
			w.hit(e.p, pid(n))
		}
	}
	// busy runs f with the policy lock held by the test.
	busy := func(e *env, f func()) {
		e.m.locks[0].TryAcquireSilent()
		f()
		e.m.locks[0].Release(e.p)
	}
	// published leaves w2 (and w) with a batch sitting in its slot.
	published := func(e *env, own bool) {
		busy(e, func() {
			if own {
				hit(e, e.w, 1, 2, 3, 4)
			}
			hit(e, e.w2, 5, 6, 7, 8)
		})
	}
	direct := func(*Config) {}
	batch := func(c *Config) { c.Batching = true }
	fc := func(c *Config) { c.Batching, c.FlatCombining = true, true }
	shared := func(c *Config) { c.Batching, c.SharedQueue = true, true }
	adaptive := func(c *Config) { c.Batching, c.AdaptiveThreshold = true, true }

	rows := []struct {
		name  string
		cfg   func(*Config)
		held  bool
		bump  Time // another acquisition comes and goes this long into the op
		setup func(*env)
		op    func(*env)
		want  roundWant
	}{
		// The threshold, lock free: the batch goes in on the first try, on
		// lines the prefetch left warm.
		{name: "direct/threshold", cfg: direct,
			op: func(e *env) { hit(e, e.w, 1, 2) },
			want: roundWant{ops: "h1 h2", acq: 2, committed: 2,
				outside: 2 * pf, hold: 2 * (grab + op)}},
		{name: "batch/threshold", cfg: batch,
			op: func(e *env) { hit(e, e.w, 1, 2, 3, 4) },
			want: roundWant{ops: "h1 h2 h3 h4", acq: 1, committed: 4,
				outside: pf + try, hold: grab + 4*op}},
		{name: "fc/threshold", cfg: fc,
			op: func(e *env) { hit(e, e.w, 1, 2, 3, 4) },
			want: roundWant{ops: "h1 h2 h3 h4", acq: 1, committed: 4,
				outside: pf + ref + try, hold: grab + 4*op}},
		{name: "shared/threshold", cfg: shared,
			op: func(e *env) { hit(e, e.w, 1, 2, 3, 4) },
			want: roundWant{ops: "h1 h2 h3 h4", acq: 1, qacq: 5, committed: 4,
				outside: 4*(grab+op) + grab + pf + try, hold: grab + 4*op}},
		{name: "adaptive/threshold", cfg: adaptive,
			setup: func(e *env) { e.w.trialRuns = 7 }, // the eighth first-attempt success moves it
			op:    func(e *env) { hit(e, e.w, 1, 2, 3, 4) },
			want: roundWant{ops: "h1 h2 h3 h4", acq: 1, committed: 4, threshold: +1,
				outside: pf + try, hold: grab + 4*op}},

		// The same, but someone takes and frees the lock between the walk and
		// the try: the lines are cold again, and an entry whose page another
		// worker's miss has evicted meanwhile is dropped, not applied.
		{name: "batch/threshold-invalidated", cfg: batch, bump: pf + 1,
			setup: func(e *env) { hit(e, e.w, 1, 2, 3); e.w2.miss(e.p, pid(9)) }, // evicts page 1
			op:    func(e *env) { hit(e, e.w, 4) },
			want: roundWant{ops: "h2 h3 h4", acq: 1, committed: 3, dropped: 1,
				outside: pf + try, hold: grab + warm + 3*op}},

		// The threshold, lock held: block / keep recording / publish and
		// walk away / put the stolen batch back.
		{name: "direct/threshold-held", cfg: direct, held: true,
			op: func(e *env) { hit(e, e.w, 1) },
			want: roundWant{ops: "h1", acq: 1, contended: 1, committed: 1,
				outside: pf, hold: grab + op}},
		{name: "batch/threshold-held", cfg: batch, held: true,
			op: func(e *env) { hit(e, e.w, 1, 2, 3, 4) },
			want: roundWant{tryFail: 1, pending: 4,
				outside: pf + try}},
		{name: "fc/threshold-held", cfg: fc, held: true,
			op: func(e *env) { hit(e, e.w, 1, 2, 3, 4) },
			want: roundWant{tryFail: 1, handoff: 1, pending: 4,
				outside: pf + ref + try}},
		{name: "shared/threshold-held", cfg: shared, held: true,
			op: func(e *env) { hit(e, e.w, 1, 2, 3, 4) },
			want: roundWant{tryFail: 1, qacq: 6, pending: 4,
				outside: 4*(grab+op) + grab + pf + try + grab}},
		{name: "adaptive/threshold-held", cfg: adaptive, held: true,
			setup: func(e *env) { e.w.trialRuns = 7 },
			op:    func(e *env) { hit(e, e.w, 1, 2, 3, 4) },
			want: roundWant{tryFail: 1, pending: 4,
				outside: pf + try}},

		// Nowhere left to record, lock held: everyone blocks — after a try at
		// every hit from the threshold on, each behind its own walk — and
		// the adaptive threshold comes down.
		{name: "direct/full-held", cfg: direct, held: true,
			op: func(e *env) { hit(e, e.w, 1) },
			want: roundWant{ops: "h1", acq: 1, contended: 1, committed: 1,
				outside: pf, hold: grab + op}},
		{name: "batch/full-held", cfg: batch, held: true,
			op: func(e *env) { hit(e, e.w, 1, 2, 3, 4, 5, 6, 7, 8) },
			want: roundWant{ops: "h1 h2 h3 h4 h5 h6 h7 h8", acq: 1, tryFail: 4, contended: 1, committed: 8,
				outside: 5*pf + 4*try, hold: grab + 8*op}},
		{name: "fc/full-held", cfg: fc, held: true,
			op: func(e *env) { hit(e, e.w, 1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4) },
			want: roundWant{ops: "h1 h2 h3 h4 h5 h6 h7 h8 h1 h2 h3 h4", acq: 1, tryFail: 1, contended: 1,
				committed: 12, handoff: 1,
				outside: 2*pf + ref + try, hold: grab + 12*op}},
		{name: "shared/full-held", cfg: shared, held: true,
			op: func(e *env) { hit(e, e.w, 1, 2, 3, 4, 5, 6, 7, 8) },
			want: roundWant{ops: "h1 h2 h3 h4 h5 h6 h7 h8", acq: 1, tryFail: 4, contended: 1, qacq: 8 + 5 + 4,
				committed: 8,
				outside:   8*(grab+op) + 5*(grab+pf) + 4*(try+grab), hold: grab + 8*op}},
		{name: "adaptive/full-held", cfg: adaptive, held: true,
			op: func(e *env) { hit(e, e.w, 1, 2, 3, 4, 5, 6, 7, 8) },
			want: roundWant{ops: "h1 h2 h3 h4 h5 h6 h7 h8", acq: 1, tryFail: 4, contended: 1, committed: 8,
				threshold: -1,
				outside:   5*pf + 4*try, hold: grab + 8*op}},

		// The end-of-run flush. Under flat combining: a published batch, one
		// more hit behind it, and another worker's batch to take along. The
		// shared queue is nobody's to flush: what is in it stays there.
		{name: "direct/flush", cfg: direct,
			op:   func(e *env) { e.w.flush(e.p) },
			want: roundWant{}},
		{name: "batch/flush", cfg: batch,
			setup: func(e *env) { hit(e, e.w, 1) },
			op:    func(e *env) { e.w.flush(e.p) },
			want: roundWant{ops: "h1", acq: 1, committed: 1,
				outside: pf, hold: grab + op}},
		{name: "fc/flush", cfg: fc,
			setup: func(e *env) { published(e, true); hit(e, e.w, 1) },
			op:    func(e *env) { e.w.flush(e.p) },
			want: roundWant{ops: "h1 h2 h3 h4 h1 h5 h6 h7 h8", acq: 1, committed: 9, combined: 1,
				outside: pf, hold: grab + 9*op + ref}},
		{name: "shared/flush", cfg: shared,
			setup: func(e *env) { hit(e, e.w, 1) },
			op:    func(e *env) { e.w.flush(e.p) },
			want:  roundWant{pending: 1}},
		{name: "adaptive/flush", cfg: adaptive,
			setup: func(e *env) { hit(e, e.w, 1) },
			op:    func(e *env) { e.w.flush(e.p) },
			want: roundWant{ops: "h1", acq: 1, committed: 1, threshold: -1,
				outside: pf, hold: grab + op}},

		// The miss: no walk (the victim is not known before the lock is
		// held), so the warm-up is paid; the queued hits go in ahead of the
		// admit, and under flat combining the worker's own slot ahead of
		// those and everyone else's behind.
		{name: "direct/miss", cfg: direct,
			op: func(e *env) { e.w.miss(e.p, pid(9)) },
			want: roundWant{ops: "m9 v1", acq: 1,
				outside: io, hold: grab + warm + missw + op}},
		{name: "batch/miss", cfg: batch,
			setup: func(e *env) { hit(e, e.w, 1) },
			op:    func(e *env) { e.w.miss(e.p, pid(9)) },
			want: roundWant{ops: "h1 m9 v2", acq: 1, committed: 1,
				outside: io, hold: grab + warm + op + missw + op}},
		{name: "fc/miss", cfg: fc,
			setup: func(e *env) { published(e, true); hit(e, e.w, 1) },
			op:    func(e *env) { e.w.miss(e.p, pid(9)) },
			want: roundWant{ops: "h1 h2 h3 h4 h1 m9 v5 h6 h7 h8", acq: 1, committed: 8, dropped: 1, combined: 1,
				outside: io, hold: grab + warm + 5*op + missw + op + ref + 3*op}},
		{name: "shared/miss", cfg: shared,
			setup: func(e *env) { hit(e, e.w, 1) },
			op:    func(e *env) { e.w.miss(e.p, pid(9)) },
			want: roundWant{ops: "h1 m9 v2", acq: 1, qacq: 1, committed: 1,
				outside: grab + io, hold: grab + warm + op + missw + op}},
		{name: "adaptive/miss", cfg: adaptive,
			setup: func(e *env) { hit(e, e.w, 1) },
			op:    func(e *env) { e.w.miss(e.p, pid(9)) },
			want: roundWant{ops: "h1 m9 v2", acq: 1, committed: 1,
				outside: io, hold: grab + warm + op + missw + op}},
	}

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cfg := Config{
				Procs: 2, Workers: 2, Policy: "lru", Prefetching: true,
				QueueSize: 8, BatchThreshold: 4, Frames: 8,
				Workload: workload.NewUniform(workload.SyntheticConfig{Pages: 16}),
			}
			row.cfg(&cfg)
			m, err := newMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			log := &opLog{Policy: m.policy}
			for n := uint64(1); n <= 8; n++ {
				m.policy.Admit(pid(n))
			}
			m.policy = log
			l := m.locks[0]
			e := &env{m: m, w: m.workers[0], w2: m.workers[1]}

			type counters struct {
				lock, qlock                           LockStats
				committed, dropped, combined, handoff int64
				threshold, ops                        int
			}
			read := func() counters {
				c := counters{lock: l.Stats(), committed: m.committed, dropped: m.dropped,
					combined: m.combinedBatches, handoff: m.handoffSaved,
					threshold: e.w.curThreshold(), ops: len(log.ops)}
				if m.qlock != nil {
					c.qlock = m.qlock.Stats()
				}
				return c
			}
			var before, after counters
			var elapsed Time
			// The test drives both workers by hand from one process; the
			// workers' own run loops never start.
			m.k.Spawn(func(p *Process) {
				e.p = p
				if row.setup != nil {
					row.setup(e)
				}
				before = read()
				start := p.Now()
				if row.held {
					l.TryAcquireSilent()
					m.k.Spawn(func(q *Process) { q.Sleep(holdFor); l.Release(q) })
				}
				if row.bump > 0 {
					m.k.Spawn(func(q *Process) { q.Sleep(row.bump); l.TryAcquireSilent(); l.Release(q) })
				}
				row.op(e)
				elapsed = p.Now() - start
				p.Sleep(holdFor) // the test's hold is over and booked
				after = read()
			})
			m.k.Run(0)

			want := row.want
			var wantOps []string
			for _, o := range strings.Fields(want.ops) {
				n, _ := strconv.ParseUint(o[1:], 10, 64)
				wantOps = append(wantOps, o[:1]+pid(n).String())
			}
			if got := log.ops[before.ops:]; !slices.Equal(got, wantOps) {
				t.Errorf("policy saw %v, want %v", got, wantOps)
			}
			var mine int64 // the test's own acquisitions, and the time it held
			var mineHeld Time
			if row.held {
				mine, mineHeld = 1, holdFor
			}
			if row.bump > 0 {
				mine++
			}
			check := func(what string, got, want int64) {
				t.Helper()
				if got != want {
					t.Errorf("%s = %d, want %d", what, got, want)
				}
			}
			check("Lock.Acquisitions", after.lock.Acquisitions-before.lock.Acquisitions-mine, want.acq)
			check("Lock.TryFailures", after.lock.TryFailures-before.lock.TryFailures, want.tryFail)
			check("Lock.Contentions", after.lock.Contentions-before.lock.Contentions, want.contended)
			check("queue mutex acquisitions", after.qlock.Acquisitions-before.qlock.Acquisitions, want.qacq)
			check("Committed", after.committed-before.committed, want.committed)
			check("Dropped", after.dropped-before.dropped, want.dropped)
			check("CombinedBatches", after.combined-before.combined, want.combined)
			check("HandoffSaved", after.handoff-before.handoff, want.handoff)
			check("threshold movement", int64(after.threshold-before.threshold), int64(want.threshold))
			pending := len(e.w.queue) + len(e.w.pub)
			if cfg.SharedQueue {
				pending = len(m.shared)
			}
			check("pending", int64(pending), int64(want.pending))

			hold := after.lock.HoldTime - before.lock.HoldTime - mineHeld
			waited := after.lock.WaitTime - before.lock.WaitTime + after.qlock.WaitTime - before.qlock.WaitTime
			check("time under the policy lock", int64(hold), int64(want.hold))
			check("time charged outside it", int64(elapsed-waited-hold), int64(want.outside))
		})
	}
}
