package core

import (
	"sync/atomic"
	"testing"

	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
)

// trapPolicy panics on Hit of one armed page id, simulating a broken
// replacement policy encountered mid-combine.
type trapPolicy struct {
	replacer.Policy
	armed atomic.Uint64 // page id whose Hit panics; 0 disarmed
}

func (p *trapPolicy) Hit(id page.PageID) {
	if uint64(id) == p.armed.Load() {
		panic("trap policy: poisoned hit")
	}
	p.Policy.Hit(id)
}

// TestCombinerPanicContained arms a policy to panic mid-drain and checks
// the flat-combining commit survives it: the panic is recovered inside
// combineLocked (the lock is still released — a follow-up flush would
// deadlock otherwise), counted in Stats, and the wrapper keeps working
// once the policy behaves again.
func TestCombinerPanicContained(t *testing.T) {
	trap := &trapPolicy{Policy: replacer.NewLRU(64)}
	w := New(trap, Config{Batching: true, FlatCombining: true, QueueSize: 8, BatchThreshold: 2})
	s := w.NewSession()
	s.Miss(pid(1), page.BufferTag{})
	s.Miss(pid(2), page.BufferTag{})

	trap.armed.Store(uint64(pid(1)))
	// Threshold crossing: publish + TryLock succeeds + combineLocked
	// drains the published batch, where the poisoned hit fires.
	s.Hit(pid(1), page.BufferTag{Page: pid(1)})
	s.Hit(pid(2), page.BufferTag{Page: pid(2)})
	if got := w.Stats().CombinerPanics; got != 1 {
		t.Fatalf("CombinerPanics=%d, want 1", got)
	}

	// The lock was released and the wrapper still serves: if the recover
	// had not run (or had kept the lock), this flush would deadlock.
	trap.armed.Store(0)
	s.Hit(pid(2), page.BufferTag{Page: pid(2)})
	s.Flush()
	w.Locked(func(pol replacer.Policy) {
		if !pol.Contains(pid(2)) {
			t.Fatal("policy lost residency of an untouched page")
		}
	})
	st := w.Stats()
	if st.CombinerPanics != 1 {
		t.Fatalf("CombinerPanics=%d after recovery, want still 1", st.CombinerPanics)
	}
	if st.Commits == 0 {
		t.Fatal("no commits recorded; the commit path did not survive the panic")
	}
}
