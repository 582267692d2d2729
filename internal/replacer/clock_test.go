package replacer

import "testing"

func clockRef(t *testing.T, p *Clock, id PageID) int32 {
	t.Helper()
	slot, ok := p.find(id)
	if !ok {
		t.Fatalf("page %v not resident", id)
	}
	return p.nodes[slot].ref.Load()
}

// TestGClockWeightDecay verifies the generalized clock's usage-count
// scheme: hits saturate the counter at maxCount, and every sweep pass
// decays each counter by exactly one, so a heavily used page survives
// maxCount sweep passes, not forever.
func TestGClockWeightDecay(t *testing.T) {
	// A two-frame ring makes the decay schedule exact: every sweep starts
	// at page 1, decrements its counter by one, and evicts the zero-count
	// newcomer behind it.
	p := NewGClock(2, 5)
	p.Admit(tid(1))
	p.Admit(tid(2))
	for i := 0; i < 9; i++ {
		p.Hit(tid(1)) // 9 hits, counter must saturate at 5
	}
	if got := clockRef(t, p, tid(1)); got != 5 {
		t.Fatalf("page 1 ref = %d after 9 hits, want saturation at 5", got)
	}
	for i := uint64(3); i <= 7; i++ {
		victim, evicted := p.Admit(tid(i))
		if err := CheckDeep(p); err != nil {
			t.Fatal(err)
		}
		if !evicted || victim != tid(i-1) {
			t.Fatalf("admit %d: victim = %v (evicted=%v), want %v — weighted page evicted early", i, victim, evicted, tid(i-1))
		}
		if got, want := clockRef(t, p, tid(1)), int32(5-(i-2)); got != want {
			t.Fatalf("admit %d: page 1 ref = %d, want exactly one decay per sweep pass (%d)", i, got, want)
		}
	}
	// The weight is spent; the next sweep must take page 1 itself.
	if victim, _ := p.Admit(tid(8)); victim != tid(1) {
		t.Fatalf("victim = %v, want the fully decayed page 1", victim)
	}
}

// TestGClockHitConcurrentWithSweep drives lock-free hits against a
// serialized admit/evict loop: the CAS loop must keep every counter in
// [0, maxCount] (the deep invariant checker verifies) and -race must stay
// quiet.
func TestGClockHitConcurrentWithSweep(t *testing.T) {
	p := NewGClock(8, 5)
	for i := uint64(0); i < 8; i++ {
		p.Admit(tid(i))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20000; i++ {
			p.Hit(tid(uint64(i) % 16))
		}
	}()
	// The policy lock serializes Admit/Evict in production; emulate that
	// by keeping all structural ops on this goroutine.
	for i := uint64(8); i < 400; i++ {
		if !p.Contains(tid(i % 16)) {
			p.Admit(tid(i % 16))
		}
		p.Evict()
		if p.Len() > p.Cap() {
			t.Fatalf("Len %d > Cap %d", p.Len(), p.Cap())
		}
	}
	<-done
	if err := CheckDeep(p); err != nil {
		t.Fatal(err)
	}
}
