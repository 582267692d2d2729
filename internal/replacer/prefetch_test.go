package replacer

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestPrefetchIndexSizedFromCapacity pins when the id index exists and how
// big it is: a policy driven by slot with no history to remember never
// builds one, the first Admit by id or the first ghost does, and its table
// follows the policy's capacity, not a constant.
func TestPrefetchIndexSizedFromCapacity(t *testing.T) {
	for _, n := range []int{1, 2, 3, 100, 2048, 2049, 1 << 16} {
		ix := newIDIndex(n, false)
		if h := len(ix.heads); h&(h-1) != 0 || h < n || h >= 2*n && n > 1 {
			t.Errorf("%d slab indexes: %d buckets, want a power of two in [%d, %d)", n, h, n, 2*n)
		}
		if len(ix.next) != n || len(ix.ids) != n {
			t.Errorf("%d slab indexes: chains over %d, ids over %d", n, len(ix.next), len(ix.ids))
		}
	}
	bySlot := NewLRU(8)
	for s := uint32(0); s < 8; s++ {
		bySlot.AdmitSlot(s, tid(uint64(s)))
	}
	bySlot.HitSlot(3, tid(3))
	bySlot.EvictSlot(nil)
	if !bySlot.Contains(tid(3)) || bySlot.ix.Load() != nil {
		t.Error("LRU driven by slot: Contains must answer by scanning, without building the id index")
	}
	small, big := NewTwoQ(8), NewTwoQ(8192)
	small.Admit(tid(1))
	big.Admit(tid(1))
	if s, b := len(small.ix.Load().heads), len(big.ix.Load().heads); s != 16 || b != 16384 {
		t.Errorf("2q indexes: %d buckets at capacity 8, %d at 8192", s, b)
	}
	ghosts := NewTwoQ(4)
	for s := uint32(0); s < 4; s++ {
		ghosts.AdmitSlot(s, tid(uint64(s)))
	}
	if ghosts.ix.Load() != nil {
		t.Error("2q driven by slot built its index before it had a ghost to file")
	}
	if v, ok := ghosts.EvictSlot(nil); !ok || ghosts.ix.Load() == nil {
		t.Error("2q's first ghost did not build the index")
	} else if _, remembered := ghosts.ghost(v.ID); !remembered || ghosts.byID {
		t.Error("2q driven by slot must file its ghost, and only its ghost")
	}
}

// TestPrefetchIndexExact pins the index's semantics: ids that share a
// bucket are all found, each at its own slab index, and remove unfiles only
// the entry it names.
func TestPrefetchIndexExact(t *testing.T) {
	ix := newIDIndex(64, false)
	a := tid(1)
	b := tid(2)
	for ix.bucket(b) != ix.bucket(a) {
		b++
	}
	c := b + 1
	for ix.bucket(c) != ix.bucket(a) {
		c++
	}
	expect := func(when string, want map[PageID]uint32) {
		t.Helper()
		for _, id := range []PageID{a, b, c} {
			i, ok := ix.lookup(id)
			if w, filed := want[id]; ok != filed || ok && i != w {
				t.Fatalf("%s: lookup(%v) = %d, %v; want %d, %v", when, id, i, ok, w, filed)
			}
		}
	}
	expect("empty index", nil)
	ix.insert(a, 5)
	ix.insert(b, 9)
	ix.insert(c, 0)
	expect("three ids in one bucket", map[PageID]uint32{a: 5, b: 9, c: 0})
	ix.remove(b, 9)
	expect("the middle of the chain removed", map[PageID]uint32{a: 5, c: 0})
	ix.remove(a, 5)
	ix.insert(b, 5) // a slab index is filed under one id at a time
	expect("an index refiled under another id", map[PageID]uint32{b: 5, c: 0})
	ix.remove(c, 0)
	ix.remove(b, 5)
	expect("all removed", nil)
}

func TestPrefetchIndexDoesNotAllocate(t *testing.T) {
	ix := newIDIndex(256, true)
	ids := make([]PageID, 64)
	for i := range ids {
		ids[i] = tid(uint64(i))
	}
	for name, fn := range map[string]func(){
		"insert": func() {
			for i, id := range ids {
				ix.insert(id, uint32(i))
			}
		},
		"lookup": func() {
			for _, id := range ids {
				ix.lookup(id)
			}
		},
		"remove": func() {
			for i, id := range ids {
				ix.remove(id, uint32(i))
			}
		},
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s allocates %v times per %d pages", name, n, len(ids))
		}
	}
}

// TestPrefetchIndexConcurrent hammers a policy's index the way the wrapper
// does — Admit, Evict and Remove serialized by a lock, Prefetch outside it —
// so that -race checks every word the walk's lookup shares with the writers.
func TestPrefetchIndexConcurrent(t *testing.T) {
	for _, name := range []string{"2q", "clock", "lirs"} {
		pol, _ := New(name, 32)
		ids := make([]PageID, 512)
		for i := range ids {
			ids[i] = tid(uint64(i))
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
						pol.(Prefetcher).Prefetch(ids)
						if !HitNeedsLock(pol) {
							pol.Hit(ids[7])
						}
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
					id := ids[rng.Intn(len(ids))]
					mu.Lock()
					switch {
					case !pol.Contains(id):
						pol.Admit(id)
					case rng.Intn(2) == 0:
						pol.Remove(id)
					default:
						pol.Evict()
					}
					mu.Unlock()
				}
			}(int64(w))
		}
		writers.Wait()
		close(stop)
		readers.Wait()
		if err := CheckDeep(pol); err != nil {
			t.Fatal(err)
		}
	}
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
