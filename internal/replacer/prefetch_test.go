package replacer

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// probe is an index entry that counts its walks.
type probe struct{ touched int }

func (p *probe) touch() uint64 { p.touched++; return 0 }

func TestPrefetchIndexSizedFromCapacity(t *testing.T) {
	for _, c := range []int{1, 2, 3, 100, 2048, 2049, 1 << 16} {
		px := newPrefetchIndex[node](c)
		n := len(px.slots)
		if n&(n-1) != 0 || n < 2*c || n >= 4*c {
			t.Errorf("capacity %d: %d slots, want a power of two in [%d, %d)", c, n, 2*c, 4*c)
		}
	}
	// A real policy's table follows its capacity, not a constant.
	if small, big := len(NewTwoQ(8).slots), len(NewTwoQ(8192).slots); small != 16 || big != 16384 {
		t.Errorf("2q tables: %d slots at capacity 8, %d at 8192", small, big)
	}
}

// TestPrefetchIndexLossy pins the table's semantics: one slot per hash, the
// last note wins it, and forget clears a slot only for the page that holds it.
func TestPrefetchIndexLossy(t *testing.T) {
	if raceEnabled {
		t.Skip("the field walk this test counts is compiled out under -race")
	}
	px := newPrefetchIndex[probe](64)
	a := tid(1)
	b := tid(2)
	for px.slot(b) != px.slot(a) {
		b++
	}
	c := tid(3)
	for px.slot(c) == px.slot(a) {
		c++
	}
	var ea, eb, ec probe
	walk := func(ids ...PageID) [3]int {
		ea, eb, ec = probe{}, probe{}, probe{}
		px.Prefetch(ids)
		return [3]int{ea.touched, eb.touched, ec.touched}
	}
	expect := func(when string, got, want [3]int) {
		t.Helper()
		if got != want {
			t.Fatalf("%s: entries a, b, c walked %v times, want %v", when, got, want)
		}
	}

	expect("empty table", walk(a, b, c), [3]int{})
	px.note(a, &ea)
	px.note(c, &ec)
	expect("a and c noted", walk(a, b, c, a), [3]int{2, 0, 1})
	px.note(b, &eb)
	expect("b displaced a", walk(a, b, c), [3]int{0, 1, 1})
	px.forget(a)
	expect("forgetting the displaced a leaves b", walk(a, b, c), [3]int{0, 1, 1})
	px.note(a, &ea)
	px.forget(a)
	expect("forgetting a, noted last, empties the slot", walk(a, b, c), [3]int{0, 0, 1})
	px.forget(c)
	expect("all forgotten", walk(a, b, c), [3]int{})
}

func TestPrefetchIndexDoesNotAllocate(t *testing.T) {
	px := newPrefetchIndex[node](256)
	nodes := make([]node, 64)
	ids := make([]PageID, len(nodes))
	for i := range nodes {
		ids[i] = tid(uint64(i))
		nodes[i].id = ids[i]
	}
	for name, fn := range map[string]func(){
		"note": func() {
			for i := range nodes {
				px.note(ids[i], &nodes[i])
			}
		},
		"Prefetch": func() { px.Prefetch(ids) },
		"forget": func() {
			for _, id := range ids {
				px.forget(id)
			}
		},
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s allocates %v times per %d pages", name, n, len(ids))
		}
	}
}

// TestPrefetchIndexConcurrent hammers the table the way a policy does —
// note and forget serialized by a lock, Prefetch outside it — so that -race
// checks every word the walk's lookup shares with the writers.
func TestPrefetchIndexConcurrent(t *testing.T) {
	px := newPrefetchIndex[node](32) // small: most notes collide
	nodes := make([]node, 512)
	ids := make([]PageID, len(nodes))
	for i := range nodes {
		ids[i] = tid(uint64(i))
		nodes[i].id = ids[i]
	}
	var (
		mu      sync.Mutex
		writers sync.WaitGroup
		readers sync.WaitGroup
	)
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					px.Prefetch(ids)
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for n := 0; n < 20000; n++ {
				i := rng.Intn(len(ids))
				mu.Lock()
				if rng.Intn(2) == 0 {
					px.note(ids[i], &nodes[i])
				} else {
					px.forget(ids[i])
				}
				mu.Unlock()
			}
		}(int64(w))
	}
	writers.Wait()
	close(stop)
	readers.Wait()
}

// TestPrefetchNeverChangesVictims is the differential that keeps hit ratios
// fixed whether or not the walk runs: the same seeded trace through two
// instances of every policy, one of them walked before each access over that
// access and the ones after it, evicts the same pages in the same order.
func TestPrefetchNeverChangesVictims(t *testing.T) {
	trace := zipfTrace(7, 30000, 400)
	victims := func(p Policy, walk bool) []PageID {
		var out []PageID
		for i, id := range trace {
			if walk {
				p.(Prefetcher).Prefetch(trace[i:min(i+32, len(trace))])
			}
			if p.Contains(id) {
				p.Hit(id)
			} else if v, ok := p.Admit(id); ok {
				out = append(out, v)
			}
		}
		return out
	}
	for name, factory := range Factories() {
		plain, walked := victims(factory(100), false), victims(factory(100), true)
		if len(plain) == 0 {
			t.Errorf("%s: the trace evicted nothing", name)
		}
		if !slices.Equal(plain, walked) {
			t.Errorf("%s: victim sequence differs once Prefetch runs (%d vs %d evictions)", name, len(plain), len(walked))
		}
	}
}
