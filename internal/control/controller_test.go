package control

import (
	"strings"
	"testing"
	"time"

	"bpwrapper/internal/buffer"
	"bpwrapper/internal/core"
	"bpwrapper/internal/obs"
	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/storage"
)

func pid(n uint64) page.PageID { return page.NewPageID(1, n) }

func countKind(acts []Action, k ActionKind) int {
	n := 0
	for _, a := range acts {
		if a.Kind == k {
			n++
		}
	}
	return n
}

// drive loops the session over pages [1..loop] n times, releasing every
// ref, and flushes so the pool counters are exact before the next Step.
func drive(t *testing.T, p *buffer.Pool, s *buffer.Session, loop, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		id := pid(uint64(i%loop) + 1)
		ref, err := p.Get(s, id)
		if err != nil {
			t.Fatalf("Get(%v): %v", id, err)
		}
		ref.Release()
	}
	s.Flush()
}

// TestControllerSwapsPolicyOnLoopTrace: a 2Q pool fed a cyclic loop larger
// than the cache is the canonical wrong-policy setup — LIRS pins a stable
// LIR set while LRU-family stacks thrash. The controller's shadow scorer
// must detect it from the sampled stream and hot-swap the pool to lirs,
// then hold there without flapping.
func TestControllerSwapsPolicyOnLoopTrace(t *testing.T) {
	p := buffer.New(buffer.Config{
		Frames:        64,
		PolicyFactory: func(c int) replacer.Policy { return replacer.NewTwoQ(c) },
		Device:        storage.NewMemDevice(),
	})
	defer p.Close()
	c := New(Config{
		Pool:       p,
		SampleRate: 1, // shadow every access: fully deterministic
		RingSize:   1 << 14,
		Candidates: []string{"2q", "lirs"},
		MinWindow:  256,
	})
	defer c.Stop()

	s := p.NewSession()
	swapped := false
	for round := 0; round < 20 && !swapped; round++ {
		drive(t, p, s, 128, 1000)
		acts := c.Step()
		swapped = countKind(acts, ActSwapPolicy) > 0
	}
	if !swapped {
		t.Fatalf("controller never swapped policy; scores: %v", c.Scores())
	}
	st := p.Stats()
	if got := st.PerShard[0].Policy; got != "lirs" {
		t.Fatalf("pool policy %q after swap, want lirs", got)
	}
	if la := c.LastAction(); la.Kind != ActSwapPolicy || !strings.Contains(la.Detail, "2q->lirs") {
		t.Fatalf("LastAction = %+v, want swap-policy 2q->lirs", la)
	}

	// Stability: lirs is now both incumbent and best; further steps on the
	// same trace must not swap again.
	for round := 0; round < 8; round++ {
		drive(t, p, s, 128, 1000)
		if acts := c.Step(); countKind(acts, ActSwapPolicy) > 0 {
			t.Fatalf("policy flapped on round %d: %v", round, acts)
		}
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("invariants after hot-swap: %v", err)
	}
}

// TestControllerReshardsDownOnFragmentationGap: a 4-shard pool whose hash
// happens to overload one shard (its loop share exceeds its per-shard
// capacity) thrashes there, while the unsharded ghost simulation fits the
// whole loop. The ghost-minus-actual gap with quiet locks must trigger a
// reshard down.
func TestControllerReshardsDownOnFragmentationGap(t *testing.T) {
	p := buffer.New(buffer.Config{
		Frames:        256, // 64 per shard at 4 shards
		Shards:        4,
		PolicyFactory: func(c int) replacer.Policy { return replacer.NewLRU(c) },
		Device:        storage.NewMemDevice(),
	})
	defer p.Close()

	// Build an adversarial working set: ~90 pages routed to shard 0 (so
	// its 64-frame LRU loops hopelessly) plus 150 spread over the rest —
	// 240 total, comfortably inside the unsharded 256-frame budget.
	var hot, rest []page.PageID
	for n := uint64(1); len(hot) < 90 || len(rest) < 150; n++ {
		id := pid(n)
		if p.ShardOf(id) == 0 {
			if len(hot) < 90 {
				hot = append(hot, id)
			}
		} else if len(rest) < 150 {
			rest = append(rest, id)
		}
	}
	workset := append(append([]page.PageID(nil), hot...), rest...)

	c := New(Config{
		Pool:       p,
		SampleRate: 4,
		RingSize:   1 << 14,
		Candidates: []string{"lru"}, // incumbent only: isolate the reshard rule
		MinWindow:  256,
	})
	defer c.Stop()

	s := p.NewSession()
	reshards := 0
	for round := 0; round < 12 && reshards == 0; round++ {
		for pass := 0; pass < 2; pass++ {
			for _, id := range workset {
				ref, err := p.Get(s, id)
				if err != nil {
					t.Fatalf("Get(%v): %v", id, err)
				}
				ref.Release()
			}
		}
		s.Flush()
		reshards += countKind(c.Step(), ActReshardDown)
	}
	if reshards == 0 {
		t.Fatalf("controller never resharded down; shards=%d scores=%v", p.Shards(), c.Scores())
	}
	if got := p.Shards(); got != 2 {
		t.Fatalf("Shards()=%d after reshard-down, want 2", got)
	}
	if la := c.LastAction(); la.Kind != ActReshardDown {
		t.Fatalf("LastAction=%+v, want reshard-down", la)
	}

	// Cooldown: the very next steps must not reshard again even though the
	// gap may persist while the 2-shard topology warms.
	for round := 0; round < 3; round++ {
		drive(t, p, s, 64, 600)
		for _, a := range c.Step() {
			if a.Kind == ActReshardDown || a.Kind == ActReshardUp {
				t.Fatalf("resharded during cooldown: %+v", a)
			}
		}
	}
}

// TestControllerThresholdCutAndRestore: a window dominated by forced
// (queue-full, blocking) commits must cut the batch threshold by a
// quarter; clean windows must walk it back and eventually restore the
// configured value.
func TestControllerThresholdCutAndRestore(t *testing.T) {
	p := buffer.New(buffer.Config{
		Frames:        32,
		PolicyFactory: func(c int) replacer.Policy { return replacer.NewLRU(c) },
		Wrapper:       core.Config{Batching: true, QueueSize: 4, BatchThreshold: 4},
		Device:        storage.NewMemDevice(),
	})
	defer p.Close()
	c := New(Config{
		Pool:       p,
		Candidates: []string{"lru"},
		MinWindow:  8,
		MaxShards:  1, // the blocked window spikes lock wait; pin the topology
	})
	defer c.Stop()

	// Flush on a non-empty queue is itself a forced (blocking) commit, so
	// every "clean" window below drives an exact multiple of the current
	// threshold: the queue is empty when drive flushes.
	s := p.NewSession()
	drive(t, p, s, 16, 64) // make pages resident and take the baseline step
	c.Step()

	// Hold the shard's policy lock so the session's hit queue fills to
	// QueueSize and the overflow commit is forced to block.
	w := p.Wrapper()
	held := make(chan struct{})
	release := make(chan struct{})
	go w.Locked(func(replacer.Policy) { close(held); <-release })
	<-held
	blocked := make(chan struct{})
	go func() {
		drive(t, p, s, 4, 8) // hits only; the 5th enqueue forces a blocking commit
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("driver never blocked on a forced commit — no contention generated")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-blocked
	s.Flush()

	acts := c.Step()
	if countKind(acts, ActThresholdCut) != 1 {
		t.Fatalf("forced-heavy window did not cut the threshold: %v (wrapper stats %+v)", acts, p.WrapperStats())
	}
	if got := w.BatchThreshold(); got != 3 {
		t.Fatalf("threshold %d after cut, want 3 (= 4*3/4)", got)
	}

	// A clean window restores the configured threshold (3 + max(1, 4/8)
	// reaches the base, clearing the override). 63 accesses = 21 exact
	// batches of the cut threshold 3, so the flush is a no-op.
	drive(t, p, s, 16, 63)
	acts = c.Step()
	if countKind(acts, ActThresholdUp) != 1 {
		t.Fatalf("clean window did not raise the threshold: %v", acts)
	}
	if got := w.BatchThreshold(); got != 4 {
		t.Fatalf("threshold %d after restore, want configured 4", got)
	}
}

// TestControllerWriterSteering: a quarantine deeper than half its cap must
// switch the background writer to fast mode (quarter interval, quadruple
// burst); a drained quarantine must restore the configured rate.
func TestControllerWriterSteering(t *testing.T) {
	mem := storage.NewMemDevice()
	dev := storage.NewFaultDevice(mem, storage.FaultConfig{})
	p := buffer.New(buffer.Config{
		Frames:        8,
		PolicyFactory: func(c int) replacer.Policy { return replacer.NewLRU(c) },
		Device:        dev,
		QuarantineCap: 8,
		Health:        buffer.HealthConfig{Disable: true},
	})
	defer p.Close()
	// A deliberately slow writer so it cannot drain the quarantine behind
	// the test's back.
	w := p.StartBackgroundWriter(buffer.BackgroundWriterConfig{Interval: time.Hour})
	w.SetRate(0, 2)
	defer w.Stop()
	c := New(Config{Pool: p, Writer: w, Candidates: []string{"lru"}})
	defer c.Stop()

	s := p.NewSession()
	// pushOut dirties five pages starting at first, then evicts them all
	// by reading eight others.
	pushOut := func(first, others uint64) {
		t.Helper()
		for i := first; i < first+5; i++ {
			ref, err := p.GetWrite(s, pid(i))
			if err != nil {
				t.Fatal(err)
			}
			ref.MarkDirty()
			ref.Release()
		}
		for i := others; i < others+8; i++ {
			ref, err := p.Get(s, pid(i))
			if err != nil {
				t.Fatalf("evicting read %d: %v", i, err)
			}
			ref.Release()
		}
	}
	// The rule reads backlog, and backlog is failures only: on a healthy
	// device the same five dirty evictions are written straight from their
	// frames, park nothing, and must leave the writer alone.
	pushOut(1, 10)
	if st := p.Stats(); st.EvictWritebacks != 5 || st.Quarantined != 0 {
		t.Fatalf("healthy evictions: %d written direct, %d parked, want 5 and 0", st.EvictWritebacks, st.Quarantined)
	}
	if acts := c.Step(); countKind(acts, ActWriterFast) != 0 {
		t.Fatalf("writer sped up with nothing parked: %v", acts)
	}
	// Now park 5 dirty pages (> cap/2 = 4): evict with the device failing.
	dev.FailNextWrites(1 << 20)
	pushOut(21, 30)
	if q := p.QuarantineLen(); q <= 4 {
		t.Fatalf("setup: quarantine %d, need > 4", q)
	}

	acts := c.Step()
	if countKind(acts, ActWriterFast) != 1 {
		t.Fatalf("deep quarantine did not speed the writer: %v", acts)
	}
	iv, burst := w.Rate()
	if iv != time.Hour/4 || burst != 8 {
		t.Fatalf("fast rate = (%v, %d), want (%v, 8)", iv, burst, time.Hour/4)
	}
	// Already fast: no repeated action.
	if acts := c.Step(); countKind(acts, ActWriterFast) != 0 {
		t.Fatalf("writer-fast re-issued while already fast: %v", acts)
	}

	// Heal the device and drain; the controller must relax the writer.
	dev.FailNextWrites(0)
	if _, err := p.FlushDirty(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if q := p.QuarantineLen(); q != 0 {
		t.Fatalf("quarantine %d after heal+flush, want 0", q)
	}
	acts = c.Step()
	if countKind(acts, ActWriterRelax) != 1 {
		t.Fatalf("drained quarantine did not relax the writer: %v", acts)
	}
	iv, burst = w.Rate()
	if iv != time.Hour || burst != 2 {
		t.Fatalf("relaxed rate = (%v, %d), want configured (%v, 2)", iv, burst, time.Hour)
	}
}

// TestSkewSuppression: the skew measure that gates reshard-up — a window
// where one shard absorbs most of the traffic must read far above 1.0, and
// a balanced window must read ~1.0.
func TestSkewSuppression(t *testing.T) {
	mk := func(deltas []int64) buffer.Stats {
		st := buffer.Stats{PerShard: make([]buffer.ShardStats, len(deltas))}
		for i, d := range deltas {
			st.PerShard[i].Hits = d
		}
		return st
	}
	c := &Controller{last: mk([]int64{0, 0, 0, 0})}
	if got := c.skew(mk([]int64{100, 100, 100, 100})); got != 1.0 {
		t.Fatalf("balanced skew = %v, want 1.0", got)
	}
	if got := c.skew(mk([]int64{970, 10, 10, 10})); got <= skewLimit {
		t.Fatalf("hot-shard skew = %v, want above skewLimit %v", got, skewLimit)
	}
	c = &Controller{last: mk([]int64{0})}
	if got := c.skew(mk([]int64{1000})); got != 1.0 {
		t.Fatalf("single-shard skew = %v, want 1.0", got)
	}
}

// TestControllerObsExposition: bpw_control_* metrics render with the step
// counter, zero-filled per-kind action counters, per-candidate ghost
// scores, and the last action as an info gauge.
func TestControllerObsExposition(t *testing.T) {
	p := buffer.New(buffer.Config{
		Frames:        64,
		PolicyFactory: func(c int) replacer.Policy { return replacer.NewTwoQ(c) },
		Device:        storage.NewMemDevice(),
	})
	defer p.Close()
	c := New(Config{
		Pool:       p,
		SampleRate: 1,
		RingSize:   1 << 14,
		Candidates: []string{"2q", "lirs"},
		MinWindow:  256,
	})
	defer c.Stop()
	reg := obs.NewRegistry()
	c.RegisterObs(reg)

	s := p.NewSession()
	for round := 0; round < 20; round++ {
		drive(t, p, s, 128, 1000)
		if acts := c.Step(); countKind(acts, ActSwapPolicy) > 0 {
			break
		}
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"bpw_control_steps_total",
		`bpw_control_actions_total{kind="swap-policy"}`,
		`bpw_control_actions_total{kind="reshard-down"}`,
		`bpw_control_policy_score{policy="2q"}`,
		`bpw_control_policy_score{policy="lirs"}`,
		"bpw_control_batch_threshold",
		`bpw_control_last_action{kind="swap-policy"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", text)
	}
}

// TestControllerStartStop: the ticker goroutine runs Steps and Stop is
// idempotent (including on a never-started controller).
func TestControllerStartStop(t *testing.T) {
	p := buffer.New(buffer.Config{
		Frames:        8,
		PolicyFactory: func(c int) replacer.Policy { return replacer.NewLRU(c) },
		Device:        storage.NewMemDevice(),
	})
	defer p.Close()
	c := New(Config{Pool: p, Interval: time.Millisecond, Candidates: []string{"lru"}})
	c.Start()
	deadline := time.Now().Add(2 * time.Second)
	for c.Steps() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if c.Steps() == 0 {
		t.Fatal("started controller never stepped")
	}
	c.Stop()
	c.Stop() // idempotent

	c2 := New(Config{Pool: p, Candidates: []string{"lru"}})
	c2.Stop() // never started: must not hang
}
