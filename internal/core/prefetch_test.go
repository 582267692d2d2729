package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
)

// walkPolicy is an LRU whose Prefetch records that it ran and over which
// ids. Prefetch is called without the policy lock, so the record has its own.
type walkPolicy struct {
	replacer.Policy
	mu    sync.Mutex
	walks int64
	last  []page.PageID
}

func (p *walkPolicy) Prefetch(ids []page.PageID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.walks++
	p.last = append(p.last[:0], ids...)
}

// check fails unless both the policy and the wrapper's counter have seen
// want walks; it returns the ids of the last one.
func (p *walkPolicy) check(t *testing.T, w *Wrapper, want int64, when string) []page.PageID {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	if got := w.Stats().PrefetchWalks; p.walks != want || got != want {
		t.Fatalf("%s: policy saw %d walks, Stats.PrefetchWalks=%d, want %d", when, p.walks, got, want)
	}
	return slices.Clone(p.last)
}

// contend makes one request for w's policy lock find it held: a failed
// TryLock, or a Lock that blocks until the holder lets go.
func contend(t *testing.T, w *Wrapper, block bool) {
	t.Helper()
	w.lock.Lock()
	if !block {
		if w.lock.TryLock() {
			t.Fatal("TryLock succeeded on a held lock")
		}
		w.lock.Unlock()
		return
	}
	before := w.lock.Stats().Contentions
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.lock.Lock()
		w.lock.Unlock()
	}()
	for w.lock.Stats().Contentions == before {
		runtime.Gosched()
	}
	w.lock.Unlock()
	<-done
}

// TestPrefetchGate drives every pre-lock walk site through the gate's
// states: closed while the lock is uncontended, open for exactly one walk per
// session after any request has found the lock held, then closed again.
func TestPrefetchGate(t *testing.T) {
	tag := func(id page.PageID) page.BufferTag { return page.BufferTag{Page: id} }
	var fresh uint64 = 100 // page ids never admitted before
	twoHits := func(s *Session) []page.PageID {
		s.Hit(pid(1), tag(pid(1)))
		s.Hit(pid(2), tag(pid(2)))
		return []page.PageID{pid(1), pid(2)}
	}
	batched := Config{Batching: true, Prefetching: true, QueueSize: 8, BatchThreshold: 2}
	fc := batched
	fc.FlatCombining = true
	sites := []struct {
		name string
		cfg  Config
		op   func(s *Session) (walked []page.PageID) // ids a walk at this site covers
	}{
		{"commit", batched, twoHits},
		{"flush", batched, func(s *Session) []page.PageID {
			s.Hit(pid(1), tag(pid(1)))
			s.Flush()
			return []page.PageID{pid(1)}
		}},
		{"miss", batched, func(s *Session) []page.PageID {
			fresh++
			s.Hit(pid(2), tag(pid(2)))
			s.Miss(pid(fresh), tag(pid(fresh)))
			return []page.PageID{pid(2), pid(fresh)}
		}},
		{"missslot", batched, func(s *Session) []page.PageID {
			fresh++
			s.MissSlot(pid(fresh), 0, nil) // by id, the slot is not consulted
			return []page.PageID{pid(fresh)}
		}},
		{"unbatched hit", Config{Prefetching: true}, func(s *Session) []page.PageID {
			s.Hit(pid(1), tag(pid(1)))
			return []page.PageID{pid(1)}
		}},
		{"fc publish", fc, twoHits},
	}
	for _, site := range sites {
		for _, block := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/blockedLock=%v", site.name, block), func(t *testing.T) {
				pol := &walkPolicy{Policy: replacer.NewLRU(256)}
				w := New(pol, site.cfg)
				s1, s2 := w.NewSession(), w.NewSession()
				s1.Miss(pid(1), tag(pid(1)))
				s1.Miss(pid(2), tag(pid(2)))
				for i := 0; i < 5; i++ {
					site.op(s1)
					site.op(s2)
				}
				pol.check(t, w, 0, "uncontended")

				contend(t, w, block)
				want := site.op(s1)
				if got := pol.check(t, w, 1, "first commit after contention"); !slices.Equal(got, want) {
					t.Fatalf("walked %v, want %v", got, want)
				}
				site.op(s1)
				pol.check(t, w, 1, "second commit after contention")
				site.op(s2)
				pol.check(t, w, 2, "other session's first commit after contention")
				site.op(s2)
				site.op(s1)
				pol.check(t, w, 2, "gate closed again")
			})
		}
	}
}

// TestPrefetchBeforeForcedLock: a commit that finds the lock held and has
// no room left to keep accumulating is about to wait, so it walks first even
// though the gate was closed when the commit began.
func TestPrefetchBeforeForcedLock(t *testing.T) {
	pol := &walkPolicy{Policy: replacer.NewLRU(16)}
	// Threshold = queue size: the first TryLock failure is already the
	// forced commit.
	w := New(pol, Config{Batching: true, Prefetching: true, QueueSize: 4, BatchThreshold: 4})
	s := w.NewSession()
	s.Miss(pid(1), page.BufferTag{})

	w.lock.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 4; i++ {
			s.Hit(pid(1), page.BufferTag{Page: pid(1)})
		}
	}()
	for w.lock.Stats().Contentions == 0 {
		runtime.Gosched()
	}
	// The committer is blocked in Lock; its walk came before.
	if got := pol.check(t, w, 1, "blocked in the forced Lock"); len(got) != 4 {
		t.Fatalf("walked %v, want the four queued hits", got)
	}
	w.lock.Unlock()
	<-done
	if st := w.Stats(); st.ForcedLocks != 1 || st.Committed != 4 {
		t.Fatalf("stats %+v, want one forced commit of four", st)
	}
}

// TestPrefetchingOffNeverWalks: contention alone does not turn the walk on.
func TestPrefetchingOffNeverWalks(t *testing.T) {
	pol := &walkPolicy{Policy: replacer.NewLRU(16)}
	w := New(pol, Config{Batching: true, QueueSize: 8, BatchThreshold: 2})
	s := w.NewSession()
	s.Miss(pid(1), page.BufferTag{})
	contend(t, w, false)
	for i := 0; i < 4; i++ {
		s.Hit(pid(1), page.BufferTag{Page: pid(1)})
	}
	s.Flush()
	pol.check(t, w, 0, "Prefetching off")
}
