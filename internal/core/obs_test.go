package core

import (
	"testing"
	"time"

	"bpwrapper/internal/metrics"
	"bpwrapper/internal/obs"
	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
)

func obsEntry(i int) (page.PageID, page.BufferTag) {
	id := page.NewPageID(1, uint64(i))
	return id, page.BufferTag{}
}

func countKinds(evs []obs.Event) map[obs.EventKind]int {
	m := map[obs.EventKind]int{}
	for _, ev := range evs {
		m[ev.Kind]++
	}
	return m
}

func TestCommitPathEmitsFlightEvents(t *testing.T) {
	rec := obs.NewRecorder(256)
	w := New(replacer.NewLRU(64), Config{
		Batching:       true,
		QueueSize:      8,
		BatchThreshold: 4,
		Events:         rec,
	})
	s := w.NewSession()
	for i := 0; i < 64; i++ {
		id, tag := obsEntry(i % 16)
		s.Hit(id, tag)
	}
	s.Flush()
	kinds := countKinds(rec.Events())
	if kinds[obs.EvCommit] == 0 {
		t.Fatalf("no commit events recorded: %v", kinds)
	}
	for _, ev := range rec.Events() {
		if ev.Kind == obs.EvCommit && (ev.Arg1 == 0 || ev.Arg1 > 8) {
			t.Fatalf("commit batch length %d outside (0, queue]", ev.Arg1)
		}
	}
}

func TestCommitPathTryFailAndForcedEvents(t *testing.T) {
	rec := obs.NewRecorder(256)
	w := New(replacer.NewLRU(64), Config{
		Batching:       true,
		QueueSize:      4,
		BatchThreshold: 2,
		Events:         rec,
	})
	s := w.NewSession()
	// Hold the lock so the session's TryLock fails at the threshold and a
	// blocking commit fires when the queue fills.
	w.lock.Lock()
	for i := 0; i < 3; i++ {
		id, tag := obsEntry(i)
		s.Hit(id, tag)
	}
	kinds := countKinds(rec.Events())
	if kinds[obs.EvTryFail] == 0 {
		t.Fatalf("no trylock-fail events while lock held: %v", kinds)
	}
	if kinds[obs.EvForcedLock] != 0 {
		t.Fatalf("forced lock before the queue filled: %v", kinds)
	}
	done := make(chan struct{})
	go func() {
		id, tag := obsEntry(3)
		s.Hit(id, tag) // queue full → blocking commit
		close(done)
	}()
	// Release only once the committer is provably blocked in Lock, so the
	// forced-lock path is taken deterministically.
	for w.Stats().Lock.Contentions == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	w.lock.Unlock()
	<-done
	kinds = countKinds(rec.Events())
	if kinds[obs.EvForcedLock] != 1 {
		t.Fatalf("forced-lock events = %d, want 1: %v", kinds[obs.EvForcedLock], kinds)
	}
}

func TestFlatCombiningEmitsPublishAndCombine(t *testing.T) {
	rec := obs.NewRecorder(256)
	w := New(replacer.NewLRU(64), Config{
		Batching:       true,
		FlatCombining:  true,
		QueueSize:      8,
		BatchThreshold: 2,
		Events:         rec,
	})
	s := w.NewSession()
	for i := 0; i < 8; i++ {
		id, tag := obsEntry(i)
		s.Hit(id, tag)
	}
	s.Flush()
	kinds := countKinds(rec.Events())
	if kinds[obs.EvPublish] == 0 {
		t.Fatalf("no publish events: %v", kinds)
	}
	if kinds[obs.EvCombine] == 0 {
		t.Fatalf("no combine events: %v", kinds)
	}
	cr := w.CombineRuns()
	if cr.Count == 0 {
		t.Fatal("combiner run-length distribution empty")
	}
	if cr.Max < 1 {
		t.Fatalf("combine run max = %d", cr.Max)
	}
}

func TestBatchSizeDistribution(t *testing.T) {
	w := New(replacer.NewLRU(64), Config{
		Batching:       true,
		QueueSize:      8,
		BatchThreshold: 4,
	})
	s := w.NewSession()
	for i := 0; i < 40; i++ {
		id, tag := obsEntry(i % 16)
		s.Hit(id, tag)
	}
	s.Flush()
	bs := w.BatchSizes()
	if bs.Count == 0 {
		t.Fatal("batch-size distribution empty")
	}
	if bs.Max > 8 {
		t.Fatalf("batch size %d exceeds queue size", bs.Max)
	}
	var total int64
	for _, c := range bs.Buckets {
		total += c
	}
	if total != bs.Count {
		t.Fatalf("bucket sum %d != count %d", total, bs.Count)
	}
	// Commits at the TryLock threshold dominate an uncontended run.
	if bs.Buckets[4] == 0 {
		t.Fatalf("no threshold-sized batches: %+v", bs)
	}
}

func TestDefaultLockProfileAttached(t *testing.T) {
	w := New(replacer.NewLRU(16), Config{Batching: true})
	p := w.LockProfile()
	if p == nil || p.Wait == nil || p.Hold == nil {
		t.Fatal("default lock profile with histograms not attached")
	}
	if p.SampleEvery != 0 && p.SampleEvery != metrics.DefaultSampleEvery {
		t.Fatalf("unexpected default sample period %d", p.SampleEvery)
	}
}

// TestLockProfileOverride is the seam the tests that time every hold use: a
// profile installed on the built wrapper's lock replaces the sampled one.
func TestLockProfileOverride(t *testing.T) {
	custom := &metrics.LockProfile{SampleEvery: 1}
	w := New(replacer.NewLRU(16), Config{})
	w.lock.SetProfile(custom)
	if w.LockProfile() != custom {
		t.Fatal("installed profile not the one the wrapper reports")
	}
	s := w.NewSession()
	id, tag := obsEntry(0)
	s.Hit(id, tag)
	if got := w.Stats().Lock.HoldSamples; got == 0 {
		t.Fatalf("always-sample profile recorded %d hold samples", got)
	}
}

func TestResetStatsClearsDistributions(t *testing.T) {
	w := New(replacer.NewLRU(64), Config{Batching: true, QueueSize: 4, BatchThreshold: 2})
	s := w.NewSession()
	for i := 0; i < 8; i++ {
		id, tag := obsEntry(i)
		s.Hit(id, tag)
	}
	s.Flush()
	if w.BatchSizes().Count == 0 {
		t.Fatal("no batches before reset")
	}
	w.ResetStats()
	if w.BatchSizes().Count != 0 || w.CombineRuns().Count != 0 {
		t.Fatal("ResetStats left distribution observations")
	}
}

func TestNilRecorderCommitPath(t *testing.T) {
	// Events disabled: the entire protocol must run with zero recorder
	// overhead paths taken (nil-safe Record).
	w := New(replacer.NewLRU(64), Config{Batching: true, FlatCombining: true, QueueSize: 4, BatchThreshold: 2})
	if w.Events() != nil {
		t.Fatal("recorder unexpectedly enabled")
	}
	s := w.NewSession()
	for i := 0; i < 16; i++ {
		id, tag := obsEntry(i % 8)
		s.Hit(id, tag)
	}
	s.Flush()
	if w.Stats().Accesses != 16 {
		t.Fatalf("accesses = %d", w.Stats().Accesses)
	}
}
