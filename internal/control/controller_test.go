package control

import (
	"strings"
	"testing"
	"time"

	"bpwrapper/internal/buffer"
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
		t.Fatalf("controller never resharded down; shards=%d scores=%v", p.Stats().Shards, c.Scores())
	}
	if got := p.Stats().Shards; got != 2 {
		t.Fatalf("Shards=%d after reshard-down, want 2", got)
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
	c := New(Config{Pool: p, Candidates: []string{"lru"}})
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
