package buffer

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"bpwrapper/internal/core"
	"bpwrapper/internal/obs"
	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/storage"
)

func TestFlightRecorderDisabledByDefault(t *testing.T) {
	p := newTestPool(4, core.Config{Batching: true, QueueSize: 4, BatchThreshold: 2})
	if dump := p.FlightDump(); dump != "" {
		t.Fatalf("dump without recorders: %q", dump)
	}
	s := p.NewSession()
	for i := uint64(1); i <= 8; i++ {
		ref, err := p.Get(s, pid(i))
		if err != nil {
			t.Fatal(err)
		}
		ref.Release()
	}
	s.Flush()
	if p.events != nil {
		t.Fatal("recorder allocated with RecorderSize 0")
	}
}

func TestFlightRecorderCapturesQuarantine(t *testing.T) {
	dev := &flakyWriteDevice{Device: storage.NewMemDevice()}
	p := New(Config{
		Frames:        2,
		PolicyFactory: factoryOf("lru"),
		Device:        dev,
		RecorderSize:  64,
	})
	s := p.NewSession()
	// Dirty a page, then force it out while the device refuses writes: the
	// eviction's write from the frame fails and parks the bytes in the
	// quarantine; healing the device and flushing drains them — leaving
	// the park and the flush in the ring. (An eviction whose write
	// succeeds parks nothing, and no eviction is recorded.)
	ref, err := p.GetWrite(s, pid(1))
	if err != nil {
		t.Fatal(err)
	}
	ref.MarkDirty()
	ref.Release()
	dev.fail.Store(true)
	for i := uint64(2); i <= 4; i++ {
		r, err := p.Get(s, pid(i))
		if err != nil {
			t.Fatal(err)
		}
		r.Release()
	}
	dev.fail.Store(false)
	if _, err := p.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	kinds := map[obs.EventKind]int{}
	for _, ev := range p.events.Events() {
		kinds[ev.Kind]++
	}
	for _, k := range []obs.EventKind{obs.EvQuarantinePark, obs.EvQuarantineFlush} {
		if kinds[k] == 0 {
			t.Fatalf("no %v events recorded: %v", k, kinds)
		}
	}
	dump := p.FlightDump()
	for _, want := range []string{recorderName, "quarantine-park", "quarantine-flush"} {
		if !strings.Contains(dump, want) {
			t.Fatalf("dump missing %q:\n%s", want, dump)
		}
	}
}

// TestHitsLeaveNoFlightRecord: the flight recorder keeps the buffer
// manager's transitions, not its traffic, which the counters hold. Two
// sessions over an all-resident batched pool commit through a failed
// TryLock, a TryLock that wins and a queue-full forced Lock, and the ring
// stays empty; so it does through misses that evict clean and dirty
// victims. Misses shed once the pool is read-only add nothing either: the
// ring ends holding the health changes alone.
func TestHitsLeaveNoFlightRecord(t *testing.T) {
	const frames = 8
	p := New(Config{
		Frames:        frames,
		PolicyFactory: factoryOf("lru"),
		Wrapper:       core.Config{Batching: true, QueueSize: 4, BatchThreshold: 2},
		Device:        storage.NewMemDevice(),
		RecorderSize:  64,
	})
	ids := make([]page.PageID, frames)
	for i := range ids {
		ids[i] = pid(uint64(i + 1))
	}
	if err := p.Prewarm(ids); err != nil {
		t.Fatal(err)
	}
	get := func(s *Session, id page.PageID) {
		ref, err := p.Get(s, id)
		if err != nil {
			t.Error(err)
			return
		}
		ref.Release()
	}
	s1, s2 := p.NewSession(), p.NewSession()
	w := p.Wrapper()
	forced := make(chan struct{})
	w.Locked(func(replacer.Policy) {
		// With the lock held, s1 fills its queue to one short of full:
		// every try at the threshold fails.
		for i := 0; i < 3; i++ {
			get(s1, ids[i])
		}
		// s2 fills its queue and blocks in the forced Lock.
		go func() {
			defer close(forced)
			for i := 0; i < 4; i++ {
				get(s2, ids[i])
			}
		}()
		for w.Stats().Lock.Contentions == 0 {
			runtime.Gosched()
		}
	})
	<-forced
	get(s1, ids[3]) // the lock is free: s1's try wins
	s1.Flush()
	s2.Flush()

	ws := p.Stats().Wrapper
	if ws.Lock.TryFailures == 0 || ws.TryCommits == 0 || ws.ForcedLocks == 0 {
		t.Fatalf("try failures %d, try commits %d, forced locks %d: want each path taken",
			ws.Lock.TryFailures, ws.TryCommits, ws.ForcedLocks)
	}
	if ws.Committed != 8 {
		t.Fatalf("committed %d hits, want 8", ws.Committed)
	}
	rec := p.events
	if n := rec.Seq(); n != 0 {
		t.Fatalf("%d events recorded for hits and their commits, want 0: %v", n, rec.Events())
	}

	// Misses on the full pool: the first frames evict clean pages; then
	// every resident page is dirtied and as many misses evict them all.
	before := p.Stats()
	for i := uint64(1); i <= frames; i++ {
		get(s1, pid(frames+i))
	}
	for i := uint64(1); i <= frames; i++ {
		ref, err := p.GetWrite(s1, pid(frames+i))
		if err != nil {
			t.Fatal(err)
		}
		ref.MarkDirty()
		ref.Release()
	}
	for i := uint64(1); i <= frames; i++ {
		get(s1, pid(2*frames+i))
	}
	s1.Flush()
	st := p.Stats()
	if m, wb := st.Misses-before.Misses, st.EvictWritebacks-before.EvictWritebacks; m != 2*frames || wb != frames {
		t.Fatalf("misses %d, dirty evictions %d: want %d and %d", m, wb, 2*frames, frames)
	}
	if n := rec.Seq(); n != 0 {
		t.Fatalf("%d events recorded for evicting misses, want 0: %v", n, rec.Events())
	}

	p.SetReadOnly(true)
	for i := uint64(1); i <= frames; i++ {
		if _, err := p.Get(s1, pid(3*frames+i)); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("miss on a read-only pool: %v, want ErrOverloaded", err)
		}
	}
	st = p.Stats()
	if st.Shed != frames || st.HealthTransitions == 0 {
		t.Fatalf("shed %d misses, %d health changes: want %d and at least one", st.Shed, st.HealthTransitions, frames)
	}
	if n := rec.Seq(); n != uint64(st.HealthTransitions) {
		t.Fatalf("%d events recorded, want the %d health changes alone: %v", n, st.HealthTransitions, rec.Events())
	}
}

func TestRegisterObsExposition(t *testing.T) {
	p := New(Config{
		Frames:        8,
		PolicyFactory: func(n int) replacer.Policy { return replacer.NewLRU(n) },
		Wrapper:       core.Config{Batching: true, QueueSize: 8, BatchThreshold: 4},
		Device:        storage.NewMemDevice(),
		RecorderSize:  32,
	})
	s := p.NewSession()
	for i := uint64(1); i <= 32; i++ {
		ref, err := p.Get(s, pid(i%12+1))
		if err != nil {
			t.Fatal(err)
		}
		ref.Release()
	}
	s.Flush()

	reg := obs.NewRegistry()
	p.RegisterObs(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"\nbpw_lock_acquisitions_total ",
		"\nbpw_lock_wait_seconds_bucket{le=",
		"\nbpw_lock_hold_seconds_count ",
		"\nbpw_batch_size_bucket{le=",
		"\nbpw_combine_run_length_count ",
		"\nbpw_hits_total ",
		"\nbpw_quarantined_pages 0",
		"\nbpw_flight_dropped_total ",
		"\nbpw_policy_in_use{policy=\"lru\"} 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "shard") {
		t.Fatalf("a pool series carries a shard label or name:\n%s", out)
	}

	// The JSON tree must carry the same series for bpstat/expvar use.
	tree := reg.JSONTree()
	acq, ok := tree["bpw_lock_acquisitions_total"].([]any)
	if !ok || len(acq) != 1 {
		t.Fatalf("acquisitions series: %#v", tree["bpw_lock_acquisitions_total"])
	}
}

func TestCloseErrorCarriesFlightDump(t *testing.T) {
	mem := storage.NewMemDevice()
	dev := storage.NewFaultDevice(mem, storage.FaultConfig{})
	p := New(Config{
		Frames:        2,
		PolicyFactory: factoryOf("lru"),
		Device:        dev,
		RecorderSize:  64,
	})
	s := p.NewSession()
	ref, err := p.GetWrite(s, pid(1))
	if err != nil {
		t.Fatal(err)
	}
	ref.MarkDirty()
	ref.Release()
	dev.FailNextWrites(1 << 30) // every retry attempt fails
	cerr := p.Close()
	if cerr == nil {
		t.Fatal("Close succeeded with an unwritable device")
	}
	msg := cerr.Error()
	for _, want := range []string{"close did not reach a clean state", "flight recorder", recorderName} {
		if !strings.Contains(msg, want) {
			t.Fatalf("close error missing %q:\n%s", want, msg)
		}
	}
	dev.FailNextWrites(0)
	if err := p.Close(); err != nil {
		t.Fatalf("pool not usable after failed close: %v", err)
	}
}
