package core

import (
	"testing"

	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
)

// Tests for the control-loop hook on the wrapper: online policy hot-swap.

// TestSwapPolicyPreservesResidentsAndOrder: swapping LRU→LRU must carry the
// whole resident set over and keep the eviction order, because pages are
// drained least-valuable-first and re-admitted in that order.
func TestSwapPolicyPreservesResidentsAndOrder(t *testing.T) {
	w := New(replacer.NewLRU(4), Config{})
	for i := uint64(1); i <= 4; i++ {
		w.Policy().Admit(pid(i))
	}
	w.Policy().Hit(pid(2)) // eviction order now 1, 3, 4, 2

	from, to, err := w.SwapPolicy(func(c int) replacer.Policy { return replacer.NewLRU(c) })
	if from != "lru" || to != "lru" || err != nil {
		t.Fatalf("swap reported %q -> %q, %v; want lru -> lru", from, to, err)
	}
	pol := w.Policy()
	if pol.Len() != 4 {
		t.Fatalf("resident count %d after swap, want 4", pol.Len())
	}
	for _, want := range []uint64{1, 3, 4, 2} {
		id, ok := pol.Evict()
		if !ok || id != pid(want) {
			t.Fatalf("post-swap eviction order: got %v (ok=%v), want %v", id, ok, pid(want))
		}
	}
}

// TestSwapPolicyRefusesSmallerPolicy: a factory whose policy has less room
// than the old one's is refused, and the old policy stays, residents and all:
// each of them may be a page in a frame, which no policy would then track.
func TestSwapPolicyRefusesSmallerPolicy(t *testing.T) {
	w := New(replacer.NewLRU(8), Config{})
	for i := uint64(1); i <= 8; i++ {
		w.Policy().Admit(pid(i))
	}
	old := w.Policy()
	if _, to, err := w.SwapPolicy(func(int) replacer.Policy { return replacer.NewLRU(4) }); err == nil || to != "lru" {
		t.Fatalf("swap to a smaller policy: %q, %v; want refused", to, err)
	}
	if w.Policy() != old || old.Len() != 8 {
		t.Fatalf("a refused swap changed the policy: %s with %d residents", w.Policy().Name(), w.Policy().Len())
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatalf("invariants after a refused swap: %v", err)
	}
}

// TestSwapPolicyHotPathRepublished: after a swap, the lock-free-hit flag
// must match the NEW policy — swapping lru (locked hits) to clock (lock-free
// reference bits) has to enable the unlocked path atomically with the
// policy pointer, and the reverse swap has to disable it.
func TestSwapPolicyHotPathRepublished(t *testing.T) {
	w := New(replacer.NewLRU(4), Config{})
	if w.box.Load().lockFreeHit {
		t.Fatal("lru wrapper claims lock-free hits")
	}
	w.SwapPolicy(func(c int) replacer.Policy { return replacer.NewClock(c) })
	if !w.box.Load().lockFreeHit {
		t.Fatal("clock wrapper did not enable the lock-free hit path")
	}
	s := w.NewSession()
	w.Policy().Admit(pid(1))
	s.Hit(pid(1), page.BufferTag{Page: pid(1)}) // must not need the lock
	w.SwapPolicy(func(c int) replacer.Policy { return replacer.NewLRU(c) })
	if w.box.Load().lockFreeHit {
		t.Fatal("lru wrapper kept the lock-free hit path after swap-back")
	}
}
