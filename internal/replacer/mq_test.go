package replacer

import "testing"

func mqCheck(t *testing.T, p *MQ) {
	t.Helper()
	if err := CheckDeep(p); err != nil {
		t.Fatal(err)
	}
}

// TestMQQueueDemotionOnExpiry parks a hot page and lets its lifetime
// lapse: every subsequent access must demote the expired queue head one
// level (MQ's Adjust step), stepping it down to queue 0.
func TestMQQueueDemotionOnExpiry(t *testing.T) {
	p := NewMQTuned(8, 4, 2, 8) // lifeTime 2 ticks makes expiry immediate
	p.Admit(tid(1))
	for i := 0; i < 7; i++ {
		p.Hit(tid(1)) // freq 8 → queue 3
	}
	nd := p.nodeOf(tid(1))
	if nd.level != 3 {
		t.Fatalf("page 1 on queue %d after 8 accesses, want 3", nd.level)
	}
	p.Admit(tid(2))
	// Touch only page 2 from here on; page 1's expiry (now+2) lapses and
	// each access's adjust() demotes it one level per step.
	for step := 0; nd.level > 0; step++ {
		if step > 20 {
			t.Fatalf("page 1 stuck on queue %d after %d accesses past expiry", nd.level, step)
		}
		p.Hit(tid(2))
		mqCheck(t, p)
	}
	if nd.level != 0 {
		t.Fatalf("page 1 on queue %d, want full demotion to 0", nd.level)
	}
	if !p.Contains(tid(1)) {
		t.Fatal("demotion evicted the page")
	}
}

// TestMQDemotionRenewsExpiry checks the demoted head gets a fresh
// lifetime: one lapse must cost one level, not an immediate slide to 0.
func TestMQDemotionRenewsExpiry(t *testing.T) {
	p := NewMQTuned(8, 4, 100, 8)
	p.Admit(tid(1))
	for i := 0; i < 7; i++ {
		p.Hit(tid(1))
	}
	nd := p.nodeOf(tid(1))
	p.Admit(tid(2))
	// Age page 1 past its expiry, then access once.
	p.now += 200
	p.Hit(tid(2))
	mqCheck(t, p)
	if nd.level != 2 {
		t.Fatalf("one lapsed lifetime demoted page 1 to queue %d, want exactly one step to 2", nd.level)
	}
	// The renewed expiry must hold the page at level 2 for the next
	// accesses.
	p.Hit(tid(2))
	if nd.level != 2 {
		t.Fatalf("freshly demoted page fell to queue %d before its renewed lifetime lapsed", nd.level)
	}
}

// TestMQGhostRestoresFrequency evicts a frequent page and re-admits it:
// the Qout ghost must restore the remembered frequency so the page rejoins
// a high queue instead of starting over.
func TestMQGhostRestoresFrequency(t *testing.T) {
	p := NewMQTuned(2, 4, 1000, 4)
	p.Admit(tid(1))
	for i := 0; i < 6; i++ {
		p.Hit(tid(1)) // freq 7 → queue 2
	}
	p.Admit(tid(2))
	p.Admit(tid(3)) // evicts page 1 (lowest queue head is page 2? both on their queues)
	// Whichever got evicted, push the other out too so page 1 is a ghost.
	for !p.nodeOf(tid(1)).has(fGhost) {
		p.Evict()
		mqCheck(t, p)
	}
	p.Admit(tid(1))
	mqCheck(t, p)
	nd := p.nodeOf(tid(1))
	if nd.has(fGhost) {
		t.Fatal("re-admitted page still flagged as ghost")
	}
	if nd.count != 8 {
		t.Fatalf("restored frequency = %d, want remembered 7 + 1", nd.count)
	}
	if nd.level != p.queueFor(8) {
		t.Fatalf("re-admitted page on queue %d, want %d", nd.level, p.queueFor(8))
	}
}

// TestMQQoutBound keeps the ghost directory at its configured capacity
// under sustained eviction churn.
func TestMQQoutBound(t *testing.T) {
	p := NewMQTuned(4, 4, 1000, 3)
	for i := uint64(1); i <= 100; i++ {
		p.Admit(tid(i))
		if p.qout.len() > 3 {
			t.Fatalf("after %d admits: %d ghosts > qoutCap 3", i, p.qout.len())
		}
		mqCheck(t, p)
	}
}
