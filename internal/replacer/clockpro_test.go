package replacer

import "testing"

// cpCheck deep-checks the policy and fails the test on corruption.
func cpCheck(t *testing.T, p *ClockPro) {
	t.Helper()
	if err := CheckDeep(p); err != nil {
		t.Fatal(err)
	}
}

// TestClockProColdPromotionOnHandRotation drives the eviction hand over a
// referenced cold page in its test period: CLOCK-Pro must promote it to
// hot instead of evicting it, and the victim must be the first
// unreferenced cold page after it.
func TestClockProColdPromotionOnHandRotation(t *testing.T) {
	p := NewClockPro(4)
	for i := uint64(1); i <= 4; i++ {
		p.Admit(tid(i))
		cpCheck(t, p)
	}
	// All four are cold, in test, unreferenced. Reference page 1 so the
	// hand finds it first and promotes it.
	p.Hit(tid(1))
	victim, evicted := p.Admit(tid(5))
	cpCheck(t, p)
	if !evicted {
		t.Fatal("full cache admitted without eviction")
	}
	if victim != tid(2) {
		t.Fatalf("victim = %v, want %v (first unreferenced cold page)", victim, tid(2))
	}
	if !p.Contains(tid(1)) {
		t.Fatal("referenced cold page was evicted instead of promoted")
	}
	e := p.nodeOf(tid(1))
	if !e.has(fHot) || e.has(fTest) {
		t.Fatalf("page 1 after promotion: hot=%v test=%v, want hot, out of test", e.has(fHot), e.has(fTest))
	}
	hot, _, nr := p.Counts()
	if hot == 0 {
		t.Fatal("promotion did not increase the hot count")
	}
	// The evicted page was in its test period, so its metadata must stay
	// as a non-resident entry.
	if nr != 1 {
		t.Fatalf("non-resident count = %d, want 1 (victim keeps its test-period ghost)", nr)
	}
	if ge := p.nodeOf(tid(2)); ge == nil || !ge.has(fGhost) || !ge.has(fTest) {
		t.Fatal("victim's test-period ghost entry missing or malformed")
	}
}

// TestClockProGhostHitGrowsColdTarget re-admits a page during its test
// period: the reuse distance is small, so the cold allocation must grow
// and the page must come back hot.
func TestClockProGhostHitGrowsColdTarget(t *testing.T) {
	p := NewClockPro(4)
	for i := uint64(1); i <= 4; i++ {
		p.Admit(tid(i))
	}
	// Evict page 1 (unreferenced cold, in test) → non-resident ghost.
	victim, _ := p.Admit(tid(5))
	if victim != tid(1) {
		t.Fatalf("victim = %v, want %v", victim, tid(1))
	}
	before := p.coldTarget
	victim2, evicted := p.Admit(tid(1)) // ghost hit within the test period
	cpCheck(t, p)
	if p.coldTarget != before+1 {
		t.Fatalf("coldTarget = %d after ghost hit, want %d", p.coldTarget, before+1)
	}
	e := p.nodeOf(tid(1))
	if e == nil || !e.has(fHot) || e.has(fGhost) {
		t.Fatal("ghost hit did not re-admit the page as hot")
	}
	// Page 1's ghost was consumed by the promotion, but the cache was full,
	// so the re-admit evicted another cold page — which starts its own
	// test-period ghost.
	if !evicted || victim2 == tid(1) {
		t.Fatalf("re-admit into a full cache: victim = %v (evicted=%v), want some other page", victim2, evicted)
	}
	if _, _, nr := p.Counts(); nr != 1 {
		t.Fatalf("non-resident count = %d, want 1 (old ghost consumed, new victim's ghost created)", nr)
	}
	if ge := p.nodeOf(victim2); ge == nil || !ge.has(fGhost) || !ge.has(fTest) {
		t.Fatal("new victim's test-period ghost missing or malformed")
	}
}

// TestClockProTestPeriodExpiry floods the policy with one-shot misses so
// non-resident metadata exceeds the cache size: handTest must terminate
// the oldest test periods, bounding nNR at capacity.
func TestClockProTestPeriodExpiry(t *testing.T) {
	p := NewClockPro(8)
	grew := false
	for i := uint64(1); i <= 200; i++ {
		p.Admit(tid(i))
		cpCheck(t, p)
		_, _, nr := p.Counts()
		if nr > 8 {
			t.Fatalf("after %d one-shot misses: %d non-resident entries > capacity 8", i, nr)
		}
		if nr > 0 {
			grew = true
		}
	}
	if !grew {
		t.Fatal("scan never produced non-resident test-period entries")
	}
	if p.coldTarget < 1 || p.coldTarget > 8 {
		t.Fatalf("coldTarget = %d drifted outside [1, capacity]", p.coldTarget)
	}
}

// TestClockProExpiryShrinksColdTarget positions handTest behind resident
// cold pages still in their test period: sweeping to the next non-resident
// entry must expire those unused test periods and shrink the cold
// allocation one step each.
func TestClockProExpiryShrinksColdTarget(t *testing.T) {
	p := NewClockPro(4)
	for i := uint64(1); i <= 4; i++ {
		p.Admit(tid(i))
	}
	// Evict pages 1 and 2: both become non-resident test-period ghosts at
	// the front of the ring.
	p.Evict()
	p.Evict()
	if _, _, nr := p.Counts(); nr != 2 {
		t.Fatalf("non-resident count = %d, want 2", nr)
	}
	// Park handTest on resident cold page 3 (still in test). The sweep must
	// pass 3 and 4 — expiring both test periods, shrinking coldTarget from
	// 2 to its floor of 1 — before terminating ghost 1's test period.
	p.handTest, _ = p.find(tid(3))
	p.runHandTest()
	cpCheck(t, p)
	if p.coldTarget != 1 {
		t.Fatalf("coldTarget = %d after two unused expiries, want floor 1", p.coldTarget)
	}
	if e := p.nodeOf(tid(3)); e.has(fTest) {
		t.Fatal("resident cold page 3 still in test after the hand passed it")
	}
	if _, _, nr := p.Counts(); nr != 1 {
		t.Fatalf("non-resident count = %d after one termination, want 1", nr)
	}
}

// TestClockProRenewedTestPeriod exercises the out-of-test re-reference
// path: a resident cold page whose test period expired and is then
// referenced gets a fresh test period at the ring head rather than a
// promotion.
func TestClockProRenewedTestPeriod(t *testing.T) {
	p := NewClockPro(4)
	for i := uint64(1); i <= 4; i++ {
		p.Admit(tid(i))
	}
	// Expire page 1's test period by hand.
	e := p.nodeOf(tid(1))
	e.flags &^= fTest
	p.Hit(tid(1))
	// The hand must skip (and re-test) page 1, evicting page 2.
	victim, _ := p.Admit(tid(5))
	cpCheck(t, p)
	if victim != tid(2) {
		t.Fatalf("victim = %v, want %v", victim, tid(2))
	}
	if !e.has(fTest) || e.has(fHot) {
		t.Fatalf("re-referenced out-of-test page: test=%v hot=%v, want renewed test period, still cold", e.has(fTest), e.has(fHot))
	}
}

// TestClockProHandsSurviveChurn keeps all three hands valid across heavy
// admit/evict/remove churn (the unlink paths must advance any hand parked
// on a departing entry).
func TestClockProHandsSurviveChurn(t *testing.T) {
	p := NewClockPro(6)
	for i := uint64(0); i < 500; i++ {
		switch i % 5 {
		case 0, 1, 2:
			if !p.Contains(tid(i % 40)) {
				p.Admit(tid(i % 40))
			} else {
				p.Hit(tid(i % 40))
			}
		case 3:
			p.Evict()
		default:
			p.Remove(tid((i * 7) % 40))
		}
		cpCheck(t, p)
	}
}
