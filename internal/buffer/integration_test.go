package buffer

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"bpwrapper/internal/core"
	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/storage"
)

// TestPoolWithEveryPolicy drives the full pool stack (hash table, pins,
// eviction, write-back, batching wrapper) over every replacement algorithm
// with concurrent workers and verifies data integrity end to end.
func TestPoolWithEveryPolicy(t *testing.T) {
	for _, name := range replacer.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p := New(Config{
				Frames:        64,
				PolicyFactory: factoryOf(name),
				Wrapper:       core.Config{Batching: true, Prefetching: true, QueueSize: 16, BatchThreshold: 8},
				Device:        storage.NewMemDevice(),
			})
			var wg sync.WaitGroup
			var failed atomic.Bool
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					s := p.NewSession()
					defer s.Flush()
					for i := 0; i < 2000; i++ {
						id := pid(uint64((g*7 + i*13) % 200))
						ref, err := p.Get(s, id)
						if err != nil {
							t.Error(err)
							failed.Store(true)
							return
						}
						var want page.Page
						want.Stamp(id)
						if ref.Data()[17] != want.Data[17] {
							t.Errorf("%s: corrupt content for %v", name, id)
							failed.Store(true)
							ref.Release()
							return
						}
						ref.Release()
					}
				}(g)
			}
			wg.Wait()
			if failed.Load() {
				return
			}
			if got := p.AccessStats().Accesses(); got != 8000 {
				t.Fatalf("accesses=%d", got)
			}
			// Policy residency must agree with the pool's frame count:
			// after the run every resident page is in the table.
			p.Wrapper().Locked(func(pl replacer.Policy) {
				if pl.Len() > 64 {
					t.Errorf("policy tracks %d residents with 64 frames", pl.Len())
				}
			})
		})
	}
}

// TestGetWriteExcludesReaders checks the content lock: a writer has the
// page exclusively, and readers see either the old or the new value, never
// a torn intermediate.
func TestGetWriteExcludesReaders(t *testing.T) {
	p := newTestPool(8, core.Config{})
	var inWriter atomic.Int32
	var overlap atomic.Bool
	var wg sync.WaitGroup
	id := pid(1)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := p.NewSession()
			for i := 0; i < 500; i++ {
				if g == 0 {
					ref, err := p.GetWrite(s, id)
					if err != nil {
						t.Error(err)
						return
					}
					inWriter.Store(1)
					ref.Data()[0]++
					ref.MarkDirty()
					inWriter.Store(0)
					ref.Release()
				} else {
					ref, err := p.Get(s, id)
					if err != nil {
						t.Error(err)
						return
					}
					if inWriter.Load() == 1 {
						overlap.Store(true)
					}
					_ = ref.Data()[0]
					ref.Release()
				}
			}
		}(g)
	}
	wg.Wait()
	if overlap.Load() {
		t.Fatal("reader observed the page while a writer held it")
	}
}

// TestInvalidateUnderLoad checks Invalidate racing with Get traffic: the
// pool must never serve stale content and never wedge.
func TestInvalidateUnderLoad(t *testing.T) {
	p := newTestPool(16, core.Config{Batching: true})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := p.NewSession()
			defer s.Flush()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				i++
				ref, err := p.Get(s, pid(uint64(i%8)))
				if err != nil {
					t.Error(err)
					return
				}
				ref.Release()
			}
		}(g)
	}
	for i := 0; i < 2000; i++ {
		// ErrNoUnpinnedBuffers is acceptable (page pinned right now);
		// anything else is not.
		if err := p.Invalidate(pid(uint64(i % 8))); err != nil && err != ErrNoUnpinnedBuffers {
			t.Fatalf("invalidate: %v", err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestInvalidateRacingMisses is what a wire client can do to bpserver:
// four workers' misses that evict (24 pages, 16 frames) racing Invalidate,
// under every policy. An eviction and an Invalidate each take a page out of
// the policy in the hold that claims its frame, so neither can find the
// other's page half gone, and with at most four frames pinned no miss may
// fail.
func TestInvalidateRacingMisses(t *testing.T) {
	const frames, pages, calls, workers = 16, 24, 5000, 4
	for _, name := range replacer.Names() {
		t.Run(name, func(t *testing.T) {
			p := New(Config{
				Frames:        frames,
				PolicyFactory: factoryOf(name),
				Wrapper:       core.Config{Batching: true, QueueSize: 8, BatchThreshold: 4},
				Device:        storage.NewMemDevice(),
			})
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng, s := rand.New(rand.NewSource(seed)), p.NewSession()
					defer s.Flush()
					for i := 0; i < calls; i++ {
						id := pid(uint64(rng.Intn(pages)))
						if rng.Intn(16) == 0 {
							// The page may be pinned right now; nothing else may fail.
							if err := p.Invalidate(id); err != nil && err != ErrNoUnpinnedBuffers {
								t.Errorf("Invalidate(%v): %v", id, err)
								return
							}
							continue
						}
						ref, err := p.Get(s, id)
						if err != nil {
							t.Errorf("Get(%v): %v", id, err)
							return
						}
						if !refStamped(ref, id) {
							t.Errorf("Get(%v) returned another page's bytes", id)
						}
						ref.Release()
					}
				}(int64(w))
			}
			wg.Wait()
			if err := p.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if n := p.PinnedFrames(); n != 0 {
				t.Fatalf("%d frames left pinned", n)
			}
		})
	}
}

// TestPoolSessionIsolation checks that two sessions' batched queues do not
// interfere: each session's pending count reflects only its own hits.
func TestPoolSessionIsolation(t *testing.T) {
	p := newTestPool(8, core.Config{Batching: true, QueueSize: 32, BatchThreshold: 32})
	s1 := p.NewSession()
	s2 := p.NewSession()
	warm, _ := p.Get(s1, pid(1))
	warm.Release() // the initial miss flushes the queue and itself queues nothing
	for i := 0; i < 5; i++ {
		r, _ := p.Get(s1, pid(1))
		r.Release()
	}
	for i := 0; i < 3; i++ {
		r, _ := p.Get(s2, pid(1))
		r.Release()
	}
	if s1.Pending() != 5 || s2.Pending() != 3 {
		t.Fatalf("pending s1=%d s2=%d, want 5/3", s1.Pending(), s2.Pending())
	}
	s1.Flush()
	if s1.Pending() != 0 || s2.Pending() != 3 {
		t.Fatalf("after s1 flush: s1=%d s2=%d", s1.Pending(), s2.Pending())
	}
	s2.Flush()
}
