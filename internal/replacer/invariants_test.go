package replacer

import (
	"math/rand"
	"strings"
	"testing"
)

// driveChecked runs a mixed Hit/Admit/Evict/Remove workload against a
// policy, calling CheckDeep after every operation so the O(n) structural
// walks run regardless of the torture build tag.
func driveChecked(t *testing.T, p Policy, seed int64, steps int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	span := uint64(4 * p.Cap())
	if span < 8 {
		span = 8
	}
	for i := 0; i < steps; i++ {
		id := tid(r.Uint64() % span)
		switch op := r.Intn(10); {
		case op < 6: // access
			if p.Contains(id) {
				p.Hit(id)
			} else {
				p.Admit(id)
			}
		case op < 7: // phantom hit: must be ignored
			p.Hit(tid(span + r.Uint64()%span))
		case op < 8: // explicit eviction
			p.Evict()
		default: // external removal (buffer-pool invalidation path)
			if p.Contains(id) {
				p.Remove(id)
			}
		}
		if err := CheckDeep(p); err != nil {
			t.Fatalf("seed %d step %d: %v", seed, i, err)
		}
	}
}

// TestDeepInvariantsAllPolicies deep-checks every algorithm after every
// operation of a randomized workload, at several capacities.
func TestDeepInvariantsAllPolicies(t *testing.T) {
	for name, factory := range Factories() {
		for _, capacity := range []int{1, 3, 16, 64} {
			name, factory := name, factory
			capacity := capacity
			t.Run(name+"/cap="+itoa(capacity), func(t *testing.T) {
				t.Parallel()
				driveChecked(t, factory(capacity), int64(capacity)*31+7, 3000)
			})
		}
	}
}

// TestCheckerImplementedByAll ensures no policy silently opts out of
// invariant checking: Check must reach a real checker for each factory.
func TestCheckerImplementedByAll(t *testing.T) {
	for name, factory := range Factories() {
		p := factory(4)
		if _, ok := p.(Checker); !ok {
			t.Errorf("%s does not implement Checker", name)
		}
		if _, ok := p.(deepChecker); !ok {
			t.Errorf("%s does not implement the deep checker hook", name)
		}
	}
}

// TestInvariantCheckDetectsCorruption corrupts a policy's internals and
// confirms CheckDeep reports it — the mutation check that proves the
// walks actually bite.
func TestInvariantCheckDetectsCorruption(t *testing.T) {
	t.Run("lru-count-drift", func(t *testing.T) {
		pol, _ := New("lru", 8)
		p := pol.(*LRU)
		for i := uint64(0); i < 8; i++ {
			p.Admit(tid(i))
		}
		// Free a slot without taking its page off the list, the way a
		// lost-update bug would.
		slot, _ := p.find(tid(3))
		p.nodes[slot].flags = 0
		err := CheckDeep(p)
		if err == nil {
			t.Fatal("corrupted LRU passed CheckDeep")
		}
		if !strings.Contains(err.Error(), "lru") {
			t.Fatalf("error does not identify the policy: %v", err)
		}
	})
	t.Run("arc-target-range", func(t *testing.T) {
		pol, _ := New("arc", 8)
		p := pol.(*ARC)
		for i := uint64(0); i < 8; i++ {
			p.Admit(tid(i))
		}
		p.p = p.capacity + 1
		if err := CheckDeep(p); err == nil {
			t.Fatal("out-of-range ARC target passed CheckDeep")
		}
	})
	t.Run("clock-ref-overflow", func(t *testing.T) {
		pol, _ := New("gclock", 4)
		p := pol.(*Clock)
		p.Admit(tid(0))
		slot, _ := p.find(tid(0))
		p.nodes[slot].ref.Store(p.maxCount + 1)
		if err := CheckDeep(p); err == nil {
			t.Fatal("over-limit GCLOCK reference count passed CheckDeep")
		}
	})
	t.Run("mq-ghost-on-queue", func(t *testing.T) {
		pol, _ := New("mq", 4)
		p := pol.(*MQ)
		for i := uint64(0); i < 6; i++ {
			p.Admit(tid(i))
		}
		// Flag a resident node as a ghost without moving it.
		for _, q := range p.queues {
			if q.len() > 0 {
				p.nodes[q.front()].flags |= fGhost
				break
			}
		}
		if err := CheckDeep(p); err == nil {
			t.Fatal("ghost-flagged resident MQ node passed CheckDeep")
		}
	})
}
