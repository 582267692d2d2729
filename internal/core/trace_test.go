package core

import (
	"testing"
	"time"

	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/reqtrace"
)

// testClock returns a deterministic virtual clock advancing 100 ticks per
// read, so span durations are reproducible and never zero.
func testClock() func() int64 {
	var c int64
	return func() int64 { c += 100; return c }
}

// TestCombinerHandoffSpan is the deterministic cross-thread attribution
// proof of DESIGN.md §14: session A (traced) publishes its batch while the
// policy lock is held elsewhere, session B later takes the lock on a miss
// and combines A's batch — A's trace must contain a combiner-handoff span
// naming the publisher session, the applying session, the combiner run ID,
// and a positive wait interval.
func TestCombinerHandoffSpan(t *testing.T) {
	tr := reqtrace.New(reqtrace.Config{
		Enable: true, SampleEvery: 1, SLO: time.Hour, Clock: testClock(),
	})
	w := New(replacer.NewLRU(64), Config{
		Batching: true, FlatCombining: true,
		QueueSize: 8, BatchThreshold: 4,
		Tracer: tr,
	})
	sA := w.NewSession()
	sB := w.NewSession()

	var a reqtrace.Active
	a.Init(tr)
	sA.SetTrace(&a)
	a.Begin() // SampleEvery=1: traced
	if !a.Sampled() {
		t.Fatal("request not head-sampled with SampleEvery=1")
	}

	// Hold the policy lock so A's threshold commit cannot win TryLock and
	// must hand its batch off via the publication slot.
	w.lock.Lock()
	for i := 0; i < 4; i++ {
		sA.Hit(pid(uint64(i)), page.BufferTag{})
	}
	if sA.slot.pub.Load() == nil {
		t.Fatal("batch not published at threshold while lock busy")
	}
	w.lock.Unlock()

	// Session B misses: it takes the lock and combines A's published batch.
	sB.Miss(pid(100), page.BufferTag{})

	tid := a.ID()
	a.End(1, nil)

	var handoff *reqtrace.Span
	for _, sp := range tr.Spans() {
		if sp.Phase == reqtrace.PhaseEnqueue {
			sp := sp
			if handoff != nil {
				t.Fatalf("more than one handoff span: %+v and %+v", *handoff, sp)
			}
			handoff = &sp
		}
	}
	if handoff == nil {
		t.Fatalf("no combiner-handoff span in %+v", tr.Spans())
	}
	if handoff.Trace != tid {
		t.Fatalf("handoff span on trace %d, want %d", handoff.Trace, tid)
	}
	if handoff.Flags&reqtrace.FlagCross == 0 {
		t.Fatalf("handoff span not flagged cross-thread: %+v", *handoff)
	}
	if handoff.Dur <= 0 {
		t.Fatalf("handoff wait interval not positive: %+v", *handoff)
	}
	if handoff.Arg1 == 0 {
		t.Fatalf("handoff span missing combiner run ID: %+v", *handoff)
	}
	pub, app := reqtrace.UnpackHandoff(handoff.Arg2)
	if pub != sA.ID() || app != sB.ID() {
		t.Fatalf("handoff publisher/applier = %d/%d, want %d/%d",
			pub, app, sA.ID(), sB.ID())
	}

	st := w.Stats()
	if st.CombinedBatches != 1 {
		t.Fatalf("combined batches = %d, want 1", st.CombinedBatches)
	}
}

// TestMissPathArmsTrace verifies lazy tail arming on the miss path: with
// head sampling effectively off, a miss still produces lock-wait and
// policy-op spans when it crosses the SLO.
func TestMissPathArmsTrace(t *testing.T) {
	tr := reqtrace.New(reqtrace.Config{
		Enable: true, SampleEvery: 1 << 30, SLO: time.Nanosecond, Clock: testClock(),
	})
	w := New(replacer.NewLRU(4), Config{Batching: true, Tracer: tr})
	s := w.NewSession()
	var a reqtrace.Active
	a.Init(tr)
	s.SetTrace(&a)

	a.Begin()
	if a.Sampled() {
		t.Fatal("unexpected head sample")
	}
	s.Miss(pid(1), page.BufferTag{})
	a.End(1, nil)

	var phases []reqtrace.Phase
	for _, sp := range tr.Spans() {
		phases = append(phases, sp.Phase)
	}
	want := map[reqtrace.Phase]bool{}
	for _, p := range phases {
		want[p] = true
	}
	if !want[reqtrace.PhaseLockWait] || !want[reqtrace.PhaseRequest] {
		t.Fatalf("armed miss trace missing phases: %v", phases)
	}
	if st := tr.Snapshot(); st.KeptTail != 1 {
		t.Fatalf("stats %+v, want KeptTail=1", st)
	}
}
