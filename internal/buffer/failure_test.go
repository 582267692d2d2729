package buffer

import (
	"errors"
	"sync"
	"testing"
	"time"

	"bpwrapper/internal/core"
	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/storage"
)

func flakyPool(frames int) (*Pool, *storage.FaultDevice, *storage.MemDevice) {
	mem := storage.NewMemDevice()
	dev := storage.NewFaultDevice(mem, storage.FaultConfig{})
	p := New(Config{
		Frames:        frames,
		PolicyFactory: factoryOf("lru"),
		Wrapper:       core.Config{Batching: true, QueueSize: 8, BatchThreshold: 4},
		Device:        dev,
	})
	return p, dev, mem
}

// TestLoadFailureSurfacesAndRecovers checks a failed device read is
// reported to the caller, leaves the pool consistent, and a subsequent
// successful read works.
func TestLoadFailureSurfacesAndRecovers(t *testing.T) {
	p, dev, _ := flakyPool(4)
	s := p.NewSession()

	dev.SetFailPage(pid(1))
	if _, err := p.Get(s, pid(1)); !errors.Is(err, storage.ErrTransient) {
		t.Fatalf("err=%v, want injected transient failure", err)
	}
	// The failure must not leak a frame or policy residency.
	p.Wrapper().Locked(func(pol replacer.Policy) {
		if pol.Contains(pid(1)) {
			t.Fatal("failed load left the page resident in the policy")
		}
	})
	dev.SetFailPage(page.InvalidPageID)
	ref, err := p.Get(s, pid(1))
	if err != nil {
		t.Fatalf("pool did not recover: %v", err)
	}
	if !ref.Tag().Page.Valid() {
		t.Fatal("recovered ref has invalid tag")
	}
	ref.Release()

	// Other pages keep working throughout.
	for i := uint64(2); i < 10; i++ {
		r, err := p.Get(s, pid(i))
		if err != nil {
			t.Fatal(err)
		}
		r.Release()
	}
}

// TestLoadFailurePropagatesToWaiters checks single-flight followers get the
// loader's error rather than hanging.
func TestLoadFailurePropagatesToWaiters(t *testing.T) {
	p, dev, _ := flakyPool(4)
	dev.SetFailPage(pid(7))
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := p.NewSession()
			_, errs[g] = p.Get(s, pid(7))
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if !errors.Is(err, storage.ErrTransient) {
			t.Fatalf("goroutine %d: err=%v, want injected failure", g, err)
		}
	}
}

// TestIntermittentFailuresUnderLoad checks the pool survives sporadic
// device errors during concurrent traffic without leaking frames: after
// the storm, all frames are reusable.
func TestIntermittentFailuresUnderLoad(t *testing.T) {
	p, dev, _ := flakyPool(8)
	dev.FailNextReads(40) // the next 40 reads fail
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := p.NewSession()
			defer s.Flush()
			for i := 0; i < 500; i++ {
				ref, err := p.Get(s, pid(uint64((g*3+i)%32)))
				if err != nil {
					if !errors.Is(err, storage.ErrTransient) {
						t.Errorf("unexpected error: %v", err)
						return
					}
					continue
				}
				ref.Release()
			}
		}(g)
	}
	wg.Wait()
	// Every frame must be reusable: fill the pool completely.
	s := p.NewSession()
	for i := uint64(100); i < 108; i++ {
		ref, err := p.Get(s, pid(i))
		if err != nil {
			t.Fatalf("frame leak after failures: %v", err)
		}
		ref.Release()
	}
	s.Flush()
}

// dirtyPage writes a recognizable non-default pattern into page id through
// the pool: the stamp of id+stampShift, which differs from the stamp the
// device would synthesize for an unwritten page.
const stampShift = 1 << 20

func dirtyPage(t *testing.T, p *Pool, s *Session, id page.PageID) {
	t.Helper()
	ref, err := p.GetWrite(s, id)
	if err != nil {
		t.Fatalf("GetWrite(%v): %v", id, err)
	}
	var want page.Page
	want.Stamp(id + stampShift)
	copy(ref.Data(), want.Data[:])
	ref.MarkDirty()
	ref.Release()
}

// TestEvictionWriteBackFailureIsLossless is the acceptance test for the
// zero-data-loss eviction path: a dirty page whose eviction write-back
// fails must never be dropped. The write is killed, the page evicted (and
// quarantined), re-read through the pool (adoption must serve the modified
// bytes, not the stale device copy), and finally — after the device is
// restored — proven to reach storage.
func TestEvictionWriteBackFailureIsLossless(t *testing.T) {
	p, dev, mem := flakyPool(4)
	s := p.NewSession()

	dirtyPage(t, p, s, pid(1))
	dev.SetWriteFailRate(1) // device down for writes

	// Evict page 1 by filling the pool with other pages.
	for i := uint64(10); i < 20; i++ {
		ref, err := p.Get(s, pid(i))
		if err != nil {
			t.Fatal(err)
		}
		ref.Release()
	}
	st := p.Stats()
	if st.WriteBackFailures == 0 {
		t.Fatal("eviction under a dead device recorded no write-back failure")
	}
	if st.Quarantined == 0 && st.Dirty == 0 {
		t.Fatal("failed write-back left the page neither quarantined nor dirty")
	}
	if mem.Len() != 0 {
		t.Fatalf("device recorded %d writes while killed", mem.Len())
	}

	// Re-reading the page must serve the modified bytes from quarantine,
	// not the stale device copy.
	ref, err := p.Get(s, pid(1))
	if err != nil {
		t.Fatal(err)
	}
	var got page.Page
	copy(got.Data[:], ref.Data())
	ref.Release()
	if !got.VerifyStamp(pid(1) + stampShift) {
		t.Fatal("re-read after failed write-back returned stale device data")
	}

	// Restore the device: the contents must reach storage.
	dev.SetWriteFailRate(0)
	if err := p.Close(); err != nil {
		t.Fatalf("Close after device restore: %v", err)
	}
	var back page.Page
	if err := mem.ReadPage(pid(1), &back); err != nil {
		t.Fatal(err)
	}
	if !back.VerifyStamp(pid(1) + stampShift) {
		t.Fatal("page contents never reached storage after device restore")
	}
	if p.quarantineLen() != 0 {
		t.Fatalf("%d pages still quarantined after Close", p.quarantineLen())
	}
}

// TestQuarantineBoundRefusesDirtyEvictions checks the quarantine cap: with
// the device down and the quarantine full, dirty evictions fail (bounded
// memory) but no data is lost — after the device recovers everything
// drains to storage.
func TestQuarantineBoundRefusesDirtyEvictions(t *testing.T) {
	mem := storage.NewMemDevice()
	dev := storage.NewFaultDevice(mem, storage.FaultConfig{})
	// Health admission would shed these misses before they ever reach the
	// eviction path; this test targets the cap mechanics beneath it.
	p := disableShedding(New(Config{
		Frames:        4,
		PolicyFactory: factoryOf("lru"),
		Device:        dev,
		QuarantineCap: 2,
	}))
	s := p.NewSession()
	for i := uint64(1); i <= 4; i++ {
		dirtyPage(t, p, s, pid(i))
	}
	dev.SetWriteFailRate(1)

	// Each dirtying miss evicts a dirty page; the first two park in the
	// quarantine, after which dirty evictions are refused and misses fail
	// with ErrNoUnpinnedBuffers rather than dropping data.
	var lastErr error
	for i := uint64(50); i < 60; i++ {
		ref, err := p.GetWrite(s, pid(i))
		if err != nil {
			lastErr = err
			break
		}
		var want page.Page
		want.Stamp(pid(i) + stampShift)
		copy(ref.Data(), want.Data[:])
		ref.MarkDirty()
		ref.Release()
	}
	if !errors.Is(lastErr, ErrNoUnpinnedBuffers) {
		t.Fatalf("full quarantine + dead device: err=%v, want ErrNoUnpinnedBuffers", lastErr)
	}
	if !errors.Is(lastErr, ErrQuarantineFull) {
		t.Fatalf("full quarantine + dead device: err=%v, want ErrQuarantineFull", lastErr)
	}
	if q := p.quarantineLen(); q > 2 {
		t.Fatalf("quarantine grew to %d entries past its cap of 2", q)
	}

	dev.SetWriteFailRate(0)
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i := uint64(1); i <= 4; i++ {
		var back page.Page
		if err := mem.ReadPage(pid(i), &back); err != nil {
			t.Fatal(err)
		}
		if !back.VerifyStamp(pid(i) + stampShift) {
			t.Fatalf("page %d lost across the quarantine-full episode", i)
		}
	}
}

// TestQuarantineGateSeesParkUnderWaitingMiss covers both sides of answering
// "anything parked?" from a count instead of under quarMu. With nothing
// parked, misses — clean and dirty evictions included — go through while
// the test itself holds quarMu. And the count can be trusted when it
// matters: a miss that was already waiting on a page's eviction while the
// quarantine was still empty, and whose write then fails and parks, finds
// the count raised by the time the op lets it through, and adopts the
// parked copy rather than the device's stale one.
func TestQuarantineGateSeesParkUnderWaitingMiss(t *testing.T) {
	r := newEvictRig(t, Config{})

	r.p.quarMu.Lock()
	idle := make(chan error, 1)
	go func() {
		// Eight misses over four frames: the fourth pushes dirty page 1
		// out (a write the healthy device takes), the rest evict clean.
		s := r.p.NewSession()
		for i := uint64(20); i < 28; i++ {
			ref, err := r.p.Get(s, pid(i))
			if err != nil {
				idle <- err
				return
			}
			ref.Release()
		}
		idle <- nil
	}()
	select {
	case err := <-idle:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a miss with nothing to adopt waited for the quarantine mutex")
	}
	r.p.quarMu.Unlock()
	if st := r.p.Stats(); st.EvictWritebacks != 1 || st.Quarantined != 0 {
		t.Fatalf("stats %+v: want page 1 written back by its eviction, nothing parked", st)
	}

	// Version 2 into the frame; the device holds version 1.
	ref, err := r.p.GetWrite(r.s, pid(1))
	if err != nil {
		t.Fatal(err)
	}
	var v2 page.Page
	v2.Stamp(pid(1) + 2*stampShift)
	copy(ref.Data(), v2.Data[:])
	ref.MarkDirty()
	ref.Release()
	r.log.ops = nil
	entered, release := r.gate.armFail(pid(1), errGate)
	evicted := r.evict(t)
	<-entered
	got := r.read(t)
	waitUntil(t, "the miss to wait on the eviction", func() bool { return r.p.evictWaits.Load() == 1 })
	if n := r.p.quarantineLen(); n != 0 {
		t.Fatalf("%d pages parked while the write is still at the gate, want 0", n)
	}
	close(release)
	pg := <-got
	<-evicted
	if !pg.VerifyStamp(pid(1) + 2*stampShift) {
		t.Fatal("the waiting miss did not get the bytes parked under it")
	}
	if ops := r.log.seen(); len(ops) != 0 {
		t.Fatalf("device saw %v for the page; the miss must adopt the parked copy, not read", ops)
	}
	if st := r.p.Stats(); st.WriteBackFailures != 1 || st.Quarantined != 0 || st.Dirty != 1 {
		t.Fatalf("stats %+v: want one failed write-back, its copy adopted as the one dirty page", st)
	}
	if err := r.p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r.deviceHolds(t, 2)
}

// TestFlushDirtyAggregatesErrors checks a failing flush reports every
// failed page, keeps flushing the rest, and loses nothing.
func TestFlushDirtyAggregatesErrors(t *testing.T) {
	p, dev, mem := flakyPool(8)
	s := p.NewSession()
	for i := uint64(1); i <= 4; i++ {
		dirtyPage(t, p, s, pid(i))
	}
	dev.FailNextWrites(2) // exactly two of the four writes fail
	n, err := p.FlushDirty()
	if err == nil {
		t.Fatal("flush with injected write failures returned nil error")
	}
	if !errors.Is(err, storage.ErrTransient) {
		t.Fatalf("aggregated error lost the taxonomy: %v", err)
	}
	if n != 2 {
		t.Fatalf("flushed %d pages, want 2 (the other 2 fail)", n)
	}
	if d := p.dirtyCount(); d != 2 {
		t.Fatalf("dirty count %d after partial flush, want 2 restored", d)
	}
	// Second flush completes.
	if _, err := p.FlushDirty(); err != nil {
		t.Fatalf("second flush: %v", err)
	}
	for i := uint64(1); i <= 4; i++ {
		var back page.Page
		mem.ReadPage(pid(i), &back)
		if !back.VerifyStamp(pid(i) + stampShift) {
			t.Fatalf("page %d not durable after flushes", i)
		}
	}
}

// TestBackgroundWriterBacksOffWhenDeviceDown checks the bgwriter stops
// hammering a dead device: rounds slow down exponentially, as the device's
// own failed-write count shows, and recovery drains everything (including
// the quarantine).
func TestBackgroundWriterBacksOffWhenDeviceDown(t *testing.T) {
	p, dev, mem := flakyPool(8)
	s := p.NewSession()
	for i := uint64(1); i <= 4; i++ {
		dirtyPage(t, p, s, pid(i))
	}
	dev.SetWriteFailRate(1)
	w := p.StartBackgroundWriter(BackgroundWriterConfig{Interval: time.Millisecond})
	time.Sleep(120 * time.Millisecond)
	// Each round tries the four dirty frames once. Doubling from 1ms the
	// writer sleeps maxBackoff intervals, 16ms, from its fifth failed round
	// on; at full cadence 120ms would fit ~120 rounds, ~480 writes.
	_, failed, _ := dev.Injected()
	if failed == 0 {
		t.Fatal("the writer wrote nothing while the device was down")
	}
	if failed > 40*4 {
		t.Fatalf("%d failed writes in 120ms: backoff is not slowing the writer", failed)
	}

	dev.SetWriteFailRate(0)
	deadline := time.Now().Add(5 * time.Second)
	for (p.dirtyCount() > 0 || p.quarantineLen() > 0) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	w.Stop()
	if d, q := p.dirtyCount(), p.quarantineLen(); d != 0 || q != 0 {
		t.Fatalf("dirty=%d quarantined=%d after recovery", d, q)
	}
	for i := uint64(1); i <= 4; i++ {
		var back page.Page
		mem.ReadPage(pid(i), &back)
		if !back.VerifyStamp(pid(i) + stampShift) {
			t.Fatalf("page %d lost across the outage", i)
		}
	}
}
