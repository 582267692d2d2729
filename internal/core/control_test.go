package core

import (
	"testing"

	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
)

// Tests for the control-loop hooks on the wrapper: the dynamic batch
// threshold override and online policy hot-swap.

func TestSetBatchThresholdOverride(t *testing.T) {
	w := New(replacer.NewLRU(8), Config{Batching: true, QueueSize: 16, BatchThreshold: 8})
	s := w.NewSession()
	if got := s.Threshold(); got != 8 {
		t.Fatalf("configured threshold=%d, want 8", got)
	}
	w.SetBatchThreshold(4)
	if got := s.Threshold(); got != 4 {
		t.Fatalf("threshold=%d after SetBatchThreshold(4), want 4", got)
	}
	if got := w.BatchThreshold(); got != 4 {
		t.Fatalf("BatchThreshold()=%d, want 4", got)
	}
	w.SetBatchThreshold(99) // clamps to QueueSize
	if got := s.Threshold(); got != 16 {
		t.Fatalf("threshold=%d after over-large override, want clamp to 16", got)
	}
	w.SetBatchThreshold(0) // clears the override
	if got := s.Threshold(); got != 8 {
		t.Fatalf("threshold=%d after clearing override, want configured 8", got)
	}
}

// TestSwapPolicyPreservesResidentsAndOrder: swapping LRU→LRU must carry the
// whole resident set over and keep the eviction order, because pages are
// drained least-valuable-first and re-admitted in that order.
func TestSwapPolicyPreservesResidentsAndOrder(t *testing.T) {
	w := New(replacer.NewLRU(4), Config{})
	for i := uint64(1); i <= 4; i++ {
		w.Policy().Admit(pid(i))
	}
	w.Policy().Hit(pid(2)) // eviction order now 1, 3, 4, 2

	from, to, residue := w.SwapPolicy(func(c int) replacer.Policy { return replacer.NewLRU(c) })
	if from != "lru" || to != "lru" {
		t.Fatalf("swap reported %q -> %q, want lru -> lru", from, to)
	}
	if len(residue) != 0 {
		t.Fatalf("LRU->LRU swap produced residue %v, want none", residue)
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

// boundedStub is a Policy whose Admit enforces a queue-local bound tighter
// than its reported capacity (think 2Q's A1in): it evicts its oldest page
// whenever more than `bound` pages are resident, even though Cap is larger.
// None of the stock policies evict below total capacity during seeding, so
// this double is what exercises SwapPolicy's residue path.
type boundedStub struct {
	cap, bound int
	fifo       []replacer.PageID
}

func (p *boundedStub) Name() string { return "bounded-stub" }
func (p *boundedStub) Cap() int     { return p.cap }
func (p *boundedStub) Len() int     { return len(p.fifo) }
func (p *boundedStub) Contains(id replacer.PageID) bool {
	for _, v := range p.fifo {
		if v == id {
			return true
		}
	}
	return false
}
func (p *boundedStub) Hit(replacer.PageID) {}
func (p *boundedStub) Admit(id replacer.PageID) (victim replacer.PageID, evicted bool) {
	if len(p.fifo) >= p.bound {
		victim, evicted = p.fifo[0], true
		p.fifo = p.fifo[1:]
	}
	p.fifo = append(p.fifo, id)
	return victim, evicted
}
func (p *boundedStub) Evict() (replacer.PageID, bool) {
	if len(p.fifo) == 0 {
		return 0, false
	}
	v := p.fifo[0]
	p.fifo = p.fifo[1:]
	return v, true
}
func (p *boundedStub) Remove(id replacer.PageID) {
	for i, v := range p.fifo {
		if v == id {
			p.fifo = append(p.fifo[:i], p.fifo[i+1:]...)
			return
		}
	}
}

// TestSwapPolicyReturnsResidue: when the new policy's Admit evicts below
// total capacity (a queue-local bound), the evicted pages must come back as
// residue — their frames are still resident and the caller has to reclaim
// them through its normal victim path.
func TestSwapPolicyReturnsResidue(t *testing.T) {
	w := New(replacer.NewLRU(8), Config{})
	for i := uint64(1); i <= 8; i++ {
		w.Policy().Admit(pid(i))
	}
	_, to, residue := w.SwapPolicy(func(c int) replacer.Policy {
		return &boundedStub{cap: c, bound: 3}
	})
	if to != "bounded-stub" {
		t.Fatalf("swap target %q, want bounded-stub", to)
	}
	pol := w.Policy()
	if got := pol.Len() + len(residue); got != 8 {
		t.Fatalf("tracked (%d) + residue (%d) = %d pages, want 8 (none lost)", pol.Len(), len(residue), got)
	}
	if len(residue) != 5 {
		t.Fatalf("residue %v (len %d), want the 5 pages the bound pushed out", residue, len(residue))
	}
	for _, v := range residue {
		if pol.Contains(v.ID) {
			t.Fatalf("page %v is both residue and tracked by the new policy", v.ID)
		}
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatalf("invariants after swap: %v", err)
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
