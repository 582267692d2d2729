package replacer

import (
	"math/rand"
	"testing"
)

// simulate drives a policy with an access trace, admitting on miss, and
// returns the hit count. It checks the core residency invariants after
// every step.
func simulate(t *testing.T, p Policy, trace []PageID) int {
	t.Helper()
	hits := 0
	resident := make(map[PageID]bool)
	for i, id := range trace {
		if p.Contains(id) {
			if !resident[id] {
				t.Fatalf("step %d: policy claims %v resident, model disagrees", i, id)
			}
			p.Hit(id)
			hits++
		} else {
			if resident[id] {
				t.Fatalf("step %d: policy claims %v absent, model disagrees", i, id)
			}
			victim, evicted := p.Admit(id)
			if evicted {
				if victim == id {
					t.Fatalf("step %d: Admit(%v) evicted itself", i, id)
				}
				if !resident[victim] {
					t.Fatalf("step %d: evicted non-resident page %v", i, victim)
				}
				delete(resident, victim)
			}
			resident[id] = true
		}
		if p.Len() != len(resident) {
			t.Fatalf("step %d: Len()=%d, model has %d resident", i, p.Len(), len(resident))
		}
		if p.Len() > p.Cap() {
			t.Fatalf("step %d: Len()=%d exceeds Cap()=%d", i, p.Len(), p.Cap())
		}
	}
	return hits
}

// tracePageID builds a PageID for test traces.
func tid(n uint64) PageID { return PageID(1<<44 | n) }

// zipfTrace produces a skewed trace over span pages.
func zipfTrace(seed int64, length int, span uint64) []PageID {
	r := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(r, 1.2, 1, span-1)
	trace := make([]PageID, length)
	for i := range trace {
		trace[i] = tid(z.Uint64())
	}
	return trace
}

// loopTrace produces a cyclic-sequential trace.
func loopTrace(length int, span uint64) []PageID {
	trace := make([]PageID, length)
	for i := range trace {
		trace[i] = tid(uint64(i) % span)
	}
	return trace
}

func uniformTrace(seed int64, length int, span uint64) []PageID {
	r := rand.New(rand.NewSource(seed))
	trace := make([]PageID, length)
	for i := range trace {
		trace[i] = tid(r.Uint64() % span)
	}
	return trace
}

// TestAllPoliciesInvariants drives every algorithm with three trace shapes
// through the model-checking simulator.
func TestAllPoliciesInvariants(t *testing.T) {
	traces := map[string][]PageID{
		"zipf":    zipfTrace(1, 20000, 2000),
		"loop":    loopTrace(20000, 300),
		"uniform": uniformTrace(2, 20000, 1500),
	}
	for name, factory := range Factories() {
		for traceName, trace := range traces {
			for _, capacity := range []int{1, 2, 7, 64, 256} {
				p := factory(capacity)
				t.Run(name+"/"+traceName+"/cap="+itoa(capacity), func(t *testing.T) {
					simulate(t, p, trace)
				})
			}
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestPoliciesRemove checks that Remove keeps every algorithm consistent:
// remove random residents mid-trace, then keep going.
func TestPoliciesRemove(t *testing.T) {
	for name, factory := range Factories() {
		t.Run(name, func(t *testing.T) {
			p := factory(32)
			r := rand.New(rand.NewSource(7))
			resident := make(map[PageID]bool)
			var order []PageID
			for i := 0; i < 30000; i++ {
				switch {
				case r.Intn(10) == 0 && len(order) > 0:
					// Remove a random page (resident or not; must not panic).
					id := order[r.Intn(len(order))]
					p.Remove(id)
					delete(resident, id)
					if p.Contains(id) {
						t.Fatalf("step %d: %v still resident after Remove", i, id)
					}
				default:
					id := tid(r.Uint64() % 200)
					if p.Contains(id) {
						p.Hit(id)
					} else {
						victim, evicted := p.Admit(id)
						if evicted {
							if !resident[victim] {
								t.Fatalf("step %d: evicted non-resident %v", i, victim)
							}
							delete(resident, victim)
						}
						resident[id] = true
						order = append(order, id)
					}
				}
				if p.Len() != len(resident) {
					t.Fatalf("step %d: Len()=%d want %d", i, p.Len(), len(resident))
				}
			}
		})
	}
}

// TestPoliciesEvict checks the no-admission eviction path used by the
// buffer manager's pinned-victim retries.
func TestPoliciesEvict(t *testing.T) {
	for name, factory := range Factories() {
		t.Run(name, func(t *testing.T) {
			p := factory(16)
			if _, ok := p.Evict(); ok {
				t.Fatal("Evict on empty policy returned a victim")
			}
			for i := uint64(0); i < 16; i++ {
				if _, ev := p.Admit(tid(i)); ev {
					t.Fatalf("eviction while filling (i=%d)", i)
				}
			}
			seen := make(map[PageID]bool)
			for i := 0; i < 16; i++ {
				v, ok := p.Evict()
				if !ok {
					t.Fatalf("Evict %d failed with %d resident", i, p.Len())
				}
				if seen[v] {
					t.Fatalf("Evict returned %v twice", v)
				}
				seen[v] = true
			}
			if p.Len() != 0 {
				t.Fatalf("Len()=%d after evicting everything", p.Len())
			}
			if _, ok := p.Evict(); ok {
				t.Fatal("Evict on emptied policy returned a victim")
			}
		})
	}
}

// TestHitOnNonResident checks the BP-Wrapper requirement that stale queued
// hits (pages already evicted) are ignored by every policy.
func TestHitOnNonResident(t *testing.T) {
	for name, factory := range Factories() {
		t.Run(name, func(t *testing.T) {
			p := factory(4)
			p.Hit(tid(99)) // never inserted: must not panic or corrupt
			for i := uint64(0); i < 8; i++ {
				if !p.Contains(tid(i)) {
					p.Admit(tid(i))
				}
			}
			// Pages 0..3 are evicted in some order; hitting them again must
			// be a no-op.
			for i := uint64(0); i < 8; i++ {
				if !p.Contains(tid(i)) {
					p.Hit(tid(i))
					if p.Contains(tid(i)) {
						t.Fatalf("Hit resurrected non-resident page %v", tid(i))
					}
				}
			}
			if p.Len() > 4 {
				t.Fatalf("Len()=%d exceeds capacity", p.Len())
			}
		})
	}
}

// TestAdmitResidentPanics checks that double-admission is loudly rejected.
func TestAdmitResidentPanics(t *testing.T) {
	for name, factory := range Factories() {
		t.Run(name, func(t *testing.T) {
			p := factory(4)
			p.Admit(tid(1))
			defer func() {
				if recover() == nil {
					t.Fatal("Admit of resident page did not panic")
				}
			}()
			p.Admit(tid(1))
		})
	}
}

// TestNewByName checks the registry.
func TestNewByName(t *testing.T) {
	for _, name := range Names() {
		p, ok := New(name, 8)
		if !ok {
			t.Fatalf("New(%q) unknown", name)
		}
		if p.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, p.Name())
		}
		if p.Cap() != 8 {
			t.Fatalf("New(%q).Cap() = %d", name, p.Cap())
		}
	}
	if _, ok := New("nonsense", 8); ok {
		t.Fatal("New accepted an unknown name")
	}
	if len(Names()) != len(Factories()) {
		t.Fatalf("Names()/Factories() size mismatch: %d vs %d", len(Names()), len(Factories()))
	}
}

// TestConstructorValidation checks that nonsense capacities are rejected.
func TestConstructorValidation(t *testing.T) {
	for name, factory := range Factories() {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("zero capacity accepted")
				}
			}()
			factory(0)
		})
	}
}

// TestPrefetchSafety drives Prefetch concurrently with mutation; correctness
// here means "no crash and no behavioural effect". Run with and without
// -race (under -race the metadata walk is intentionally skipped).
func TestPrefetchSafety(t *testing.T) {
	for name, factory := range Factories() {
		p := factory(128)
		pf, ok := p.(Prefetcher)
		if !ok {
			t.Errorf("%s does not implement Prefetcher", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				ids := make([]PageID, 64)
				for {
					select {
					case <-stop:
						return
					default:
					}
					for i := range ids {
						ids[i] = tid(uint64(i) * 3)
					}
					pf.Prefetch(ids)
				}
			}()
			trace := zipfTrace(11, 50000, 500)
			for _, id := range trace {
				if p.Contains(id) {
					p.Hit(id)
				} else {
					p.Admit(id)
				}
			}
			close(stop)
			<-done
		})
	}
}

// TestLockFreeHitMarkers checks which policies advertise lock-free hits.
func TestLockFreeHitMarkers(t *testing.T) {
	for name, factory := range Factories() {
		p := factory(8)
		wantLockFree := name == "clock" || name == "gclock"
		if got := !HitNeedsLock(p); got != wantLockFree {
			t.Errorf("%s: lock-free hit = %v, want %v", name, got, wantLockFree)
		}
	}
}

// nodeOf returns the node that holds id, resident or remembered, for tests
// that look at a page's metadata.
func (s *slab) nodeOf(id PageID) *node {
	if i, ok := s.find(id); ok {
		return &s.nodes[i]
	}
	return nil
}
