package core

import (
	"sync"
	"testing"

	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
)

// holdLock grabs the policy lock from a helper goroutine and returns a
// release func. The returned func blocks until the lock is dropped.
func holdLock(w *Wrapper) (release func()) {
	rel := make(chan struct{})
	held := make(chan struct{})
	done := make(chan struct{})
	go func() {
		w.Locked(func(replacer.Policy) {
			close(held)
			<-rel
		})
		close(done)
	}()
	<-held
	return func() {
		close(rel)
		<-done
	}
}

// TestFlatCombiningNeverBlocksAtThreshold is the acceptance criterion: with
// the policy lock held by someone else, a session crossing the batch
// threshold publishes and keeps going — synchronously, in this goroutine,
// with no channel games — all the way until both its buffers are full.
func TestFlatCombiningNeverBlocksAtThreshold(t *testing.T) {
	rec := newRecording(64)
	w := New(rec, Config{Batching: true, FlatCombining: true, QueueSize: 8, BatchThreshold: 4})
	s := w.NewSession()
	s.Miss(pid(1), page.BufferTag{})

	release := holdLock(w)

	// Threshold crossing #1: publishes the 4-entry batch, TryLock fails,
	// and — the point of the protocol — returns instead of re-accumulating
	// toward a blocking commit.
	for i := 0; i < 4; i++ {
		s.Hit(pid(1), page.BufferTag{Page: pid(1)})
	}
	if got := w.Stats().HandoffSaved; got != 1 {
		t.Fatalf("HandoffSaved=%d, want 1 (publish with busy lock)", got)
	}
	// The session keeps recording into the spare buffer. Every further
	// access up to QueueSize-1 crosses the threshold again and must return
	// without blocking (slot still occupied, queue not yet full). If any of
	// these blocked, this single-goroutine test would deadlock.
	for i := 0; i < 7; i++ {
		s.Hit(pid(1), page.BufferTag{Page: pid(1)})
	}
	if got := s.Pending(); got != 11 {
		t.Fatalf("pending=%d, want 11 (4 published + 7 recorded)", got)
	}
	if got := len(rec.ops); got != 1 {
		t.Fatalf("policy saw %d ops with the lock held, want 1 (the miss)", got)
	}
	st := w.Stats()
	if st.ForcedLocks != 0 {
		t.Fatalf("forcedLocks=%d, want 0: the session must not have blocked", st.ForcedLocks)
	}

	release()
	s.Flush()
	if got := len(rec.ops); got != 12 {
		t.Fatalf("policy saw %d ops after flush, want 12", got)
	}
	if s.Pending() != 0 {
		t.Fatalf("pending=%d after flush", s.Pending())
	}
}

// TestFlatCombiningBoundedFallback drives a session until both its
// published batch and its recording queue are full; the next access must
// take the blocking forced-commit path and drain everything.
func TestFlatCombiningBoundedFallback(t *testing.T) {
	rec := newRecording(64)
	w := New(rec, Config{Batching: true, FlatCombining: true, QueueSize: 8, BatchThreshold: 4})
	s := w.NewSession()
	s.Miss(pid(1), page.BufferTag{})

	release := holdLock(w)
	for i := 0; i < 11; i++ { // 4 published + 7 queued
		s.Hit(pid(1), page.BufferTag{Page: pid(1)})
	}
	release()

	// 12th access: queue reaches QueueSize with the slot still occupied.
	// The lock is free again, so the forced fall-back applies the published
	// batch, then the queue, in order.
	s.Hit(pid(1), page.BufferTag{Page: pid(1)})
	st := w.Stats()
	if st.ForcedLocks != 1 {
		t.Fatalf("forcedLocks=%d, want 1 (bounded-memory fall-back)", st.ForcedLocks)
	}
	if got := len(rec.ops); got != 13 { // miss + 12 hits
		t.Fatalf("policy saw %d ops, want 13", got)
	}
	if s.Pending() != 0 {
		t.Fatalf("pending=%d after forced commit", s.Pending())
	}
}

// TestCombinerAppliesOtherSessionsBatches: session 1 publishes against a
// held lock; session 2 then commits normally and, as the combiner, applies
// session 1's batch too.
func TestCombinerAppliesOtherSessionsBatches(t *testing.T) {
	rec := newRecording(64)
	w := New(rec, Config{Batching: true, FlatCombining: true, QueueSize: 8, BatchThreshold: 2})
	s1 := w.NewSession()
	s2 := w.NewSession()
	s1.Miss(pid(1), page.BufferTag{})
	s1.Miss(pid(2), page.BufferTag{})

	release := holdLock(w)
	s1.Hit(pid(1), page.BufferTag{Page: pid(1)})
	s1.Hit(pid(1), page.BufferTag{Page: pid(1)}) // threshold → publish, TryLock fails
	release()

	s2.Hit(pid(2), page.BufferTag{Page: pid(2)})
	s2.Hit(pid(2), page.BufferTag{Page: pid(2)}) // threshold → TryLock wins → combine

	st := w.Stats()
	if st.CombinedBatches != 1 || st.CombinedEntries != 2 {
		t.Fatalf("combined batches=%d entries=%d, want 1/2", st.CombinedBatches, st.CombinedEntries)
	}
	if got := len(rec.ops); got != 6 { // 2 misses + s2's 2 hits + s1's 2 hits
		t.Fatalf("policy saw %d ops, want 6: %v", got, rec.ops)
	}
	if s1.Pending() != 0 {
		t.Fatalf("s1 pending=%d: combiner did not drain its slot", s1.Pending())
	}
}

// TestFlatCombiningMissAppliesPublishedFirst checks the per-session
// ordering argument: on a miss, the session's published (older) batch is
// applied before its private (younger) queue, before the miss itself.
func TestFlatCombiningMissAppliesPublishedFirst(t *testing.T) {
	rec := newRecording(64)
	w := New(rec, Config{Batching: true, FlatCombining: true, QueueSize: 8, BatchThreshold: 2})
	s := w.NewSession()
	s.Miss(pid(1), page.BufferTag{})
	s.Miss(pid(2), page.BufferTag{})

	release := holdLock(w)
	s.Hit(pid(1), page.BufferTag{Page: pid(1)})
	s.Hit(pid(1), page.BufferTag{Page: pid(1)}) // published: [h1 h1]
	s.Hit(pid(2), page.BufferTag{Page: pid(2)}) // queued:    [h2]
	release()

	s.Miss(pid(3), page.BufferTag{})
	want := []string{
		"m" + pid(1).String(), "m" + pid(2).String(),
		"h" + pid(1).String(), "h" + pid(1).String(), // published batch first
		"h" + pid(2).String(), // then the younger queue
		"m" + pid(3).String(), // then the miss
	}
	if len(rec.ops) != len(want) {
		t.Fatalf("ops=%v want %v", rec.ops, want)
	}
	for i := range want {
		if rec.ops[i] != want[i] {
			t.Fatalf("op[%d]=%s want %s (order not preserved)", i, rec.ops[i], want[i])
		}
	}
}

// TestFlatCombiningFlushDrainsPublished: Flush must apply a published
// batch the combiner never reached, plus the recording queue.
func TestFlatCombiningFlushDrainsPublished(t *testing.T) {
	rec := newRecording(64)
	w := New(rec, Config{Batching: true, FlatCombining: true, QueueSize: 8, BatchThreshold: 2})
	s := w.NewSession()
	s.Miss(pid(1), page.BufferTag{})

	release := holdLock(w)
	s.Hit(pid(1), page.BufferTag{Page: pid(1)})
	s.Hit(pid(1), page.BufferTag{Page: pid(1)}) // published
	s.Hit(pid(1), page.BufferTag{Page: pid(1)}) // queued
	release()

	s.Flush()
	if got := len(rec.ops); got != 4 {
		t.Fatalf("policy saw %d ops after flush, want 4", got)
	}
	if s.Pending() != 0 {
		t.Fatalf("pending=%d after flush", s.Pending())
	}
	s.Flush() // idempotent: empty queue, empty slot → no lock acquisition
	if got := len(rec.ops); got != 4 {
		t.Fatalf("empty flush changed state: %v", rec.ops)
	}
}

// TestFlatCombiningSequenceEqualsUnbatched extends the paper's
// order-preservation property to the flat-combining path: a single
// session's operation sequence is identical to the unbatched one.
func TestFlatCombiningSequenceEqualsUnbatched(t *testing.T) {
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
	fc := run(Config{Batching: true, FlatCombining: true, QueueSize: 64, BatchThreshold: 32})
	if len(plain) != len(fc) {
		t.Fatalf("op counts differ: %d vs %d", len(plain), len(fc))
	}
	for i := range plain {
		if plain[i] != fc[i] {
			t.Fatalf("op[%d]: %s vs %s", i, plain[i], fc[i])
		}
	}
}

// TestFlatCombiningConfigNormalization: the flag is meaningless without
// batching.
func TestFlatCombiningConfigNormalization(t *testing.T) {
	if cfg := (Config{FlatCombining: true}).withDefaults(); cfg.FlatCombining {
		t.Fatal("FlatCombining survived without Batching")
	}
	w := New(replacer.NewLRU(8), Config{FlatCombining: true})
	if w.fc != nil || w.NewSession().slot != nil {
		t.Fatal("combiner allocated for a config that normalizes FlatCombining away")
	}
}

// TestFlatCombiningBufferRecycling: after the first full
// publish/combine/republish cycle, the slot rotation must reuse the
// drained buffer rather than allocating a new one.
func TestFlatCombiningBufferRecycling(t *testing.T) {
	w := New(replacer.NewLRU(64), Config{Batching: true, FlatCombining: true, QueueSize: 8, BatchThreshold: 2})
	s := w.NewSession()
	s.Miss(pid(1), page.BufferTag{})
	// Warm the rotation: one publish+self-combine puts a buffer in done.
	s.Hit(pid(1), page.BufferTag{Page: pid(1)})
	s.Hit(pid(1), page.BufferTag{Page: pid(1)})
	s.Flush()

	allocs := testing.AllocsPerRun(100, func() {
		s.Hit(pid(1), page.BufferTag{Page: pid(1)})
		s.Hit(pid(1), page.BufferTag{Page: pid(1)}) // publish + combine (lock free)
	})
	if allocs > 0 {
		t.Fatalf("steady-state flat-combining commit allocates %.1f per cycle, want 0", allocs)
	}
}

// TestFlatCombiningConcurrent hammers the wrapper from many goroutines —
// correctness is checked by the policy's unguarded call counter under
// -race and by exact conservation of the entry counts.
func TestFlatCombiningConcurrent(t *testing.T) {
	const (
		goroutines = 8
		accesses   = 4000
	)
	rec := newRecording(128)
	w := New(rec, Config{Batching: true, FlatCombining: true, QueueSize: 16, BatchThreshold: 8})
	// Seed residency single-threaded so workers only produce hits.
	seed := w.NewSession()
	for i := 0; i < 64; i++ {
		seed.Miss(pid(uint64(i)), page.BufferTag{})
	}
	seed.Flush()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := w.NewSession()
			for i := 0; i < accesses; i++ {
				id := pid(uint64((g*31 + i) % 64))
				s.Hit(id, page.BufferTag{Page: id})
			}
			s.Flush()
		}(g)
	}
	wg.Wait()

	st := w.Stats()
	if st.Committed != goroutines*accesses {
		t.Fatalf("committed=%d, want %d: entries lost or duplicated", st.Committed, goroutines*accesses)
	}
	if rec.calls != goroutines*accesses+64 {
		t.Fatalf("policy calls=%d, want %d", rec.calls, goroutines*accesses+64)
	}
}
