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

// TestStepTakesNoPolicyLock: a Step that swaps nothing reads the
// incumbent without the policy lock, so it returns while a hit commit, a
// miss or a SwapPolicy holds shard 0's lock.
func TestStepTakesNoPolicyLock(t *testing.T) {
	p := buffer.New(buffer.Config{
		Frames:        8,
		PolicyFactory: func(c int) replacer.Policy { return replacer.NewLRU(c) },
		Device:        storage.NewMemDevice(),
	})
	defer p.Close()
	c := New(Config{Pool: p, Candidates: []string{"lru", "lirs"}})
	done := make(chan struct{})
	p.Wrapper().Locked(func(replacer.Policy) {
		go func() {
			defer close(done)
			c.Step()
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Error("Step still blocked on the policy lock after 2s")
		}
	})
	<-done
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
