package core

import (
	"slices"
	"sync"
	"testing"
	"time"

	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
)

// recordingPolicy captures the exact operation sequence delivered to it and
// detects unserialized access with a plain (non-atomic) counter.
type recordingPolicy struct {
	inner replacer.Policy
	ops   []string
	calls int // intentionally unguarded: races surface under -race
}

func newRecording(capacity int) *recordingPolicy {
	return &recordingPolicy{inner: replacer.NewLRU(capacity)}
}

func (r *recordingPolicy) Name() string                 { return "recording" }
func (r *recordingPolicy) Cap() int                     { return r.inner.Cap() }
func (r *recordingPolicy) Len() int                     { return r.inner.Len() }
func (r *recordingPolicy) Contains(id page.PageID) bool { return r.inner.Contains(id) }

func (r *recordingPolicy) Hit(id page.PageID) {
	r.calls++
	r.ops = append(r.ops, "h"+id.String())
	r.inner.Hit(id)
}

func (r *recordingPolicy) Admit(id page.PageID) (page.PageID, bool) {
	r.calls++
	r.ops = append(r.ops, "m"+id.String())
	return r.inner.Admit(id)
}

func (r *recordingPolicy) Evict() (page.PageID, bool) { return r.inner.Evict() }
func (r *recordingPolicy) Remove(id page.PageID)      { r.inner.Remove(id) }

func pid(n uint64) page.PageID { return page.NewPageID(1, n) }

// access drives the session like a buffer manager would: Hit when the
// policy thinks the page resident, Miss otherwise. Single-session use only.
func access(w *Wrapper, s *Session, rec *recordingPolicy, id page.PageID) {
	// With one session we can consult residency directly: pending queued
	// hits never change residency.
	if rec.Contains(id) {
		s.Hit(id, page.BufferTag{Page: id})
	} else {
		s.Miss(id, page.BufferTag{Page: id})
	}
}

func TestUnbatchedAppliesImmediately(t *testing.T) {
	rec := newRecording(4)
	w := New(rec, Config{})
	s := w.NewSession()
	s.Miss(pid(1), page.BufferTag{})
	s.Hit(pid(1), page.BufferTag{})
	if got := len(rec.ops); got != 2 {
		t.Fatalf("ops=%v, want immediate application", rec.ops)
	}
	if s.Pending() != 0 {
		t.Fatalf("pending=%d in unbatched mode", s.Pending())
	}
	st := w.Stats()
	if st.Committed != 1 || st.Commits != 1 || st.Lock.Acquisitions != 2 {
		t.Fatalf("stats %+v, want the hit committed alone and one lock hold per access", st)
	}
}

func TestBatchingDefersUntilThreshold(t *testing.T) {
	rec := newRecording(64)
	w := New(rec, Config{Batching: true, QueueSize: 8, BatchThreshold: 4})
	s := w.NewSession()
	s.Miss(pid(1), page.BufferTag{})
	for i := 0; i < 3; i++ {
		s.Hit(pid(1), page.BufferTag{Page: pid(1)})
	}
	if got := len(rec.ops); got != 1 {
		t.Fatalf("policy saw %d ops before threshold, want 1 (the miss)", got)
	}
	if s.Pending() != 3 {
		t.Fatalf("pending=%d, want 3", s.Pending())
	}
	// Fourth hit reaches the threshold; lock is free, so TryLock commits.
	s.Hit(pid(1), page.BufferTag{Page: pid(1)})
	if got := len(rec.ops); got != 5 {
		t.Fatalf("policy saw %d ops after threshold commit, want 5", got)
	}
	if s.Pending() != 0 {
		t.Fatalf("pending=%d after commit", s.Pending())
	}
	st := w.Stats()
	if st.TryCommits != 1 || st.ForcedLocks != 0 {
		t.Fatalf("stats %+v: want one TryLock commit", st)
	}
}

func TestBatchingBlocksOnlyWhenFull(t *testing.T) {
	rec := newRecording(64)
	w := New(rec, Config{Batching: true, QueueSize: 6, BatchThreshold: 3})
	s := w.NewSession()
	s.Miss(pid(1), page.BufferTag{})

	// Hold the lock from elsewhere so TryLock fails.
	release := make(chan struct{})
	held := make(chan struct{})
	go func() {
		w.Locked(func(replacer.Policy) {
			close(held)
			<-release
		})
	}()
	<-held
	for i := 0; i < 5; i++ {
		s.Hit(pid(1), page.BufferTag{Page: pid(1)})
	}
	if s.Pending() != 5 {
		t.Fatalf("pending=%d, want 5 (lock busy, queue not full)", s.Pending())
	}
	// The sixth hit fills the queue: the session must block until the lock
	// frees, then commit all six.
	committed := make(chan struct{})
	go func() {
		s.Hit(pid(1), page.BufferTag{Page: pid(1)})
		close(committed)
	}()
	// Give the goroutine time to reach the blocking Lock before releasing.
	time.Sleep(50 * time.Millisecond)
	select {
	case <-committed:
		t.Fatal("queue-full commit did not block on the held lock")
	default:
	}
	close(release)
	<-committed
	if s.Pending() != 0 {
		t.Fatalf("pending=%d after forced commit", s.Pending())
	}
	st := w.Stats()
	if st.ForcedLocks != 1 {
		t.Fatalf("forcedLocks=%d, want 1", st.ForcedLocks)
	}
	if st.Lock.Contentions == 0 {
		t.Fatal("blocking commit not counted as contention")
	}
}

func TestMissFlushesQueueInOrder(t *testing.T) {
	rec := newRecording(64)
	w := New(rec, Config{Batching: true, QueueSize: 16, BatchThreshold: 16})
	s := w.NewSession()
	s.Miss(pid(1), page.BufferTag{})
	s.Miss(pid(2), page.BufferTag{})
	s.Hit(pid(1), page.BufferTag{Page: pid(1)})
	s.Hit(pid(2), page.BufferTag{Page: pid(2)})
	s.Miss(pid(3), page.BufferTag{})
	want := []string{"m" + pid(1).String(), "m" + pid(2).String(),
		"h" + pid(1).String(), "h" + pid(2).String(), "m" + pid(3).String()}
	if len(rec.ops) != len(want) {
		t.Fatalf("ops=%v want %v", rec.ops, want)
	}
	for i := range want {
		if rec.ops[i] != want[i] {
			t.Fatalf("op[%d]=%s want %s (order not preserved)", i, rec.ops[i], want[i])
		}
	}
}

// TestBatchedSequenceEqualsUnbatched is the order-preservation property the
// paper claims: for a single thread, the operation sequence delivered to
// the policy is identical with and without batching — only the timing
// differs.
func TestBatchedSequenceEqualsUnbatched(t *testing.T) {
	trace := make([]page.PageID, 0, 5000)
	for i := 0; i < 5000; i++ {
		trace = append(trace, pid(uint64(i*i)%97))
	}

	run := func(cfg Config) []string {
		rec := newRecording(32)
		w := New(rec, cfg)
		s := w.NewSession()
		for _, id := range trace {
			access(w, s, rec, id)
		}
		s.Flush()
		return rec.ops
	}

	plain := run(Config{})
	batched := run(Config{Batching: true, QueueSize: 64, BatchThreshold: 32})
	if len(plain) != len(batched) {
		t.Fatalf("op counts differ: %d vs %d", len(plain), len(batched))
	}
	for i := range plain {
		if plain[i] != batched[i] {
			t.Fatalf("op[%d]: %s vs %s", i, plain[i], batched[i])
		}
	}
}

func TestFlushCommitsPending(t *testing.T) {
	rec := newRecording(8)
	w := New(rec, Config{Batching: true, QueueSize: 64, BatchThreshold: 64})
	s := w.NewSession()
	s.Miss(pid(1), page.BufferTag{})
	s.Hit(pid(1), page.BufferTag{Page: pid(1)})
	s.Hit(pid(1), page.BufferTag{Page: pid(1)})
	if len(rec.ops) != 1 {
		t.Fatalf("premature commit: %v", rec.ops)
	}
	s.Flush()
	if len(rec.ops) != 3 {
		t.Fatalf("flush did not commit: %v", rec.ops)
	}
	s.Flush() // idempotent on empty queue
	if len(rec.ops) != 3 {
		t.Fatalf("empty flush changed state: %v", rec.ops)
	}
}

func TestValidateDropsStaleEntries(t *testing.T) {
	rec := newRecording(8)
	goodTag := page.BufferTag{Page: pid(1), Gen: 1}
	w := New(rec, Config{
		Batching:  true,
		QueueSize: 8,
		Validate: func(batch []Entry) []Entry {
			live := batch[:0]
			for _, e := range batch {
				if e.Tag == goodTag {
					live = append(live, e)
				}
			}
			return live
		},
	})
	s := w.NewSession()
	s.Miss(pid(1), page.BufferTag{})
	s.Hit(pid(1), goodTag)
	s.Hit(pid(1), page.BufferTag{Page: pid(1), Gen: 2}) // stale
	s.Flush()
	st := w.Stats()
	if st.Committed != 1 || st.Dropped != 1 {
		t.Fatalf("committed=%d dropped=%d, want 1/1", st.Committed, st.Dropped)
	}
	if len(rec.ops) != 2 { // miss + one valid hit
		t.Fatalf("ops=%v", rec.ops)
	}
}

func TestLockFreeHitBypassesLock(t *testing.T) {
	clock := replacer.NewClock(8)
	w := New(clock, Config{Batching: true})
	s := w.NewSession()
	s.Miss(pid(1), page.BufferTag{})
	before := w.Stats().Lock.Acquisitions
	for i := 0; i < 100; i++ {
		s.Hit(pid(1), page.BufferTag{Page: pid(1)})
	}
	s.Flush() // nothing is queued, so this must not take the lock
	st := w.Stats()
	if st.Lock.Acquisitions != before {
		t.Fatalf("clock hits acquired the lock %d times", st.Lock.Acquisitions-before)
	}
	if st.Commits != 0 || st.Committed != 0 {
		t.Fatalf("clock hits went through the commit path: %d commits of %d entries", st.Commits, st.Committed)
	}
	if s.Pending() != 0 {
		t.Fatalf("clock hits were queued (pending=%d)", s.Pending())
	}
}

func TestConcurrentSessionsSerializePolicy(t *testing.T) {
	rec := newRecording(512)
	w := New(rec, Config{Batching: true, QueueSize: 16, BatchThreshold: 8})
	// Preload pages so hits dominate.
	w.Locked(func(p replacer.Policy) {
		for i := uint64(0); i < 256; i++ {
			p.Admit(pid(i))
		}
	})
	const workers, perWorker = 8, 20000
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := w.NewSession()
			for i := 0; i < perWorker; i++ {
				id := pid(uint64((g*31 + i)) % 256)
				s.Hit(id, page.BufferTag{Page: id})
			}
			s.Flush()
		}(g)
	}
	wg.Wait()
	st := w.Stats()
	if st.Committed != workers*perWorker {
		t.Fatalf("committed=%d want %d", st.Committed, workers*perWorker)
	}
	// The recording policy's unguarded counter equals the op count only if
	// every policy call happened under the lock. The 256 preload Admits
	// went through Locked, which bypasses the wrapper's stats.
	if rec.calls != len(rec.ops) || int64(rec.calls) != st.Committed+256 {
		t.Fatalf("calls=%d ops=%d committed=%d: policy access not serialized",
			rec.calls, len(rec.ops), st.Committed)
	}
}

func TestConfigDefaults(t *testing.T) {
	w := New(replacer.NewLRU(4), Config{Batching: true})
	cfg := w.Config()
	if cfg.QueueSize != DefaultQueueSize {
		t.Errorf("QueueSize=%d", cfg.QueueSize)
	}
	if cfg.BatchThreshold != DefaultQueueSize/2 {
		t.Errorf("BatchThreshold=%d", cfg.BatchThreshold)
	}
	w2 := New(replacer.NewLRU(4), Config{Batching: true, QueueSize: 10, BatchThreshold: 99})
	if got := w2.Config().BatchThreshold; got != 10 {
		t.Errorf("threshold not clamped to queue size: %d", got)
	}
}

func TestPrefetchingConfig(t *testing.T) {
	// Prefetching with a supporting policy must not change behaviour.
	rec := replacer.NewTwoQ(32)
	w := New(rec, Config{Batching: true, Prefetching: true, QueueSize: 8, BatchThreshold: 4})
	s := w.NewSession()
	var hits int64
	for i := uint64(0); i < 100; i++ {
		id := pid(i % 20)
		if rec.Contains(id) {
			s.Hit(id, page.BufferTag{Page: id})
			hits++
		} else {
			s.Miss(id, page.BufferTag{})
		}
	}
	s.Flush()
	st := w.Stats()
	if st.Committed != hits {
		t.Fatalf("committed=%d of %d hits", st.Committed, hits)
	}
}

// TestMissSlotProtocol: a slotted miss is one hold. It admits into the free
// slot it is handed, or, handed none, commits the queued hits, evicts and
// admits into the victim's slot, in that order.
func TestMissSlotProtocol(t *testing.T) {
	rec := newRecording(2)
	w := NewSlotted(rec, Config{Batching: true, QueueSize: 8, BatchThreshold: 8})
	s := w.NewSession()

	// Fill through free slots.
	if v, ok := s.MissSlot(pid(1), 0, nil); !ok || v != (replacer.Victim{}) {
		t.Fatalf("miss into a free slot: victim %v, admitted %v", v, ok)
	}
	s.MissSlot(pid(2), 1, nil)

	// Queue a hit, then a miss with no free slot: the hit goes in first, and
	// the page takes the victim's slot.
	s.Hit(pid(1), page.BufferTag{Page: pid(1), Slot: 0})
	v, ok := s.MissSlot(pid(3), NoSlot, nil)
	if !ok || v != (replacer.Victim{ID: pid(2), Slot: 1}) {
		t.Fatalf("victim %v, admitted %v; want page 2 from slot 1", v, ok)
	}
	if !rec.Contains(pid(3)) || rec.Contains(pid(2)) {
		t.Fatal("the miss did not replace page 2 with page 3")
	}
	want := []string{"m" + pid(1).String(), "m" + pid(2).String(), "h" + pid(1).String(), "m" + pid(3).String()}
	if !slices.Equal(rec.ops, want) {
		t.Fatalf("policy saw %v, want %v", rec.ops, want)
	}
	if st := w.Stats(); st.Committed != 1 || st.Lock.Acquisitions != 3 {
		t.Fatalf("committed=%d, lock holds=%d for three misses; want 1 and 3", st.Committed, st.Lock.Acquisitions)
	}
}

// TestMissSlotPanicsWhenAdmitEvicts: the claim decides which page leaves
// (here not the LRU page, which it refuses); and a slot handed over as free
// while the policy is full, as only a broken caller could, panics rather than
// evict a page whose frame nobody reclaims.
func TestMissSlotPanicsWhenAdmitEvicts(t *testing.T) {
	w := NewSlotted(replacer.NewLRU(2), Config{})
	s := w.NewSession()
	s.MissSlot(pid(1), 0, nil)
	s.MissSlot(pid(2), 1, nil)
	spare := func(v replacer.Victim) bool { return v.ID != pid(1) }
	if v, ok := s.MissSlot(pid(3), NoSlot, spare); !ok || v != (replacer.Victim{ID: pid(2), Slot: 1}) {
		t.Fatalf("victim %v/%v, want page 2 from slot 1", v, ok)
	}
	if v, ok := s.MissSlot(pid(4), NoSlot, func(replacer.Victim) bool { return false }); ok {
		t.Fatalf("a claim that takes nothing gave up %v", v)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("admitting into a full policy evicted instead of panicking")
		}
	}()
	s.MissSlot(pid(4), 2, nil)
}
