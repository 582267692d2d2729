package buffer

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bpwrapper/internal/core"
	"bpwrapper/internal/page"
	"bpwrapper/internal/storage"
)

// TestCloseRacesConcurrentTraffic hammers Close while worker sessions keep
// reading, dirtying and flushing pages and a background writer sweeps at
// full cadence. Close's contract is that the pool stays usable and no
// dirty data is lost; mid-race Close calls may legitimately report a
// non-clean state, but must never panic, deadlock, or corrupt frames.
// Each worker owns a disjoint page range, so the last value it wrote is
// the exact durable value expected after the final quiesced Close.
func TestCloseRacesConcurrentTraffic(t *testing.T) {
	const (
		workers       = 4
		pagesPerW     = 8
		opsPerW       = 400
		flushEvery    = 50
		closeAttempts = 6
	)
	dev := storage.NewMemDevice()
	p := New(Config{
		Frames:        8, // smaller than the 32-page working set: constant eviction
		PolicyFactory: factoryOf("lru"),
		Wrapper:       core.Config{QueueSize: 16, BatchThreshold: 4},
		Device:        dev,
	})
	bw := p.StartBackgroundWriter(BackgroundWriterConfig{Interval: time.Millisecond})

	last := make([][]byte, workers) // last[w][i]: last value written to page w*pagesPerW+i
	var wg sync.WaitGroup
	var failed atomic.Bool
	for w := 0; w < workers; w++ {
		last[w] = make([]byte, pagesPerW)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := p.NewSession()
			defer s.Flush()
			for op := 0; op < opsPerW; op++ {
				i := op % pagesPerW
				id := page.NewPageID(1, uint64(w*pagesPerW+i))
				if op%3 == 0 {
					ref, err := p.GetWrite(s, id)
					if err != nil {
						failed.Store(true)
						t.Errorf("worker %d GetWrite(%v): %v", w, id, err)
						return
					}
					v := byte(op + w + 1)
					ref.Data()[0] = v
					last[w][i] = v
					ref.MarkDirty()
					ref.Release()
				} else {
					ref, err := p.Get(s, id)
					if err != nil {
						failed.Store(true)
						t.Errorf("worker %d Get(%v): %v", w, id, err)
						return
					}
					ref.Release()
				}
				if op%flushEvery == flushEvery-1 {
					if _, err := p.FlushDirty(); err != nil {
						failed.Store(true)
						t.Errorf("worker %d FlushDirty: %v", w, err)
						return
					}
				}
			}
		}(w)
	}

	// Race Close against the traffic. Errors are expected here (workers
	// keep re-dirtying pages faster than the retry budget drains them);
	// what must not happen is a panic, a deadlock, or lost data below.
	for i := 0; i < closeAttempts; i++ {
		_ = p.Close()
	}

	wg.Wait()
	bw.Stop()
	if failed.Load() {
		t.FailNow()
	}

	// Quiesced: the final Close must reach a clean state.
	if err := p.Close(); err != nil {
		t.Fatalf("Close after quiescence: %v", err)
	}
	if n := p.PinnedFrames(); n != 0 {
		t.Fatalf("%d frames still pinned after all sessions released", n)
	}
	if n := p.quarantineLen(); n != 0 {
		t.Fatalf("%d pages still quarantined after clean Close", n)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Every page's last write must be durable on the device.
	for w := 0; w < workers; w++ {
		for i := 0; i < pagesPerW; i++ {
			if last[w][i] == 0 {
				continue // never written by its owner
			}
			id := page.NewPageID(1, uint64(w*pagesPerW+i))
			var back page.Page
			if err := dev.ReadPage(id, &back); err != nil {
				t.Fatalf("read back %v: %v", id, err)
			}
			if back.Data[0] != last[w][i] {
				t.Fatalf("page %v: device holds %#x, want last write %#x", id, back.Data[0], last[w][i])
			}
		}
	}
}

// TestCloseConcurrentWithFlushDirty runs Close and FlushDirty from
// separate goroutines over a dirty pool: both walk the same frames and
// drain the same quarantine, and must tolerate each other without losing
// pages or double-counting a clean state.
func TestCloseConcurrentWithFlushDirty(t *testing.T) {
	dev := storage.NewMemDevice()
	p := New(Config{Frames: 16, PolicyFactory: factoryOf("lru"), Device: dev})
	s := p.NewSession()
	for i := uint64(0); i < 16; i++ {
		ref, err := p.GetWrite(s, page.NewPageID(1, i))
		if err != nil {
			t.Fatal(err)
		}
		ref.Data()[0] = byte(i + 1)
		ref.MarkDirty()
		ref.Release()
	}
	s.Flush()

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := p.FlushDirty(); err != nil {
					t.Errorf("FlushDirty: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := p.Close(); err != nil {
			t.Errorf("Close racing FlushDirty: %v", err)
		}
	}()
	wg.Wait()

	if d := p.dirtyCount(); d != 0 {
		t.Fatalf("%d dirty pages after Close+FlushDirty", d)
	}
	for i := uint64(0); i < 16; i++ {
		var back page.Page
		if err := dev.ReadPage(page.NewPageID(1, i), &back); err != nil {
			t.Fatal(err)
		}
		if back.Data[0] != byte(i+1) {
			t.Fatalf("page %d: device holds %#x, want %#x", i, back.Data[0], byte(i+1))
		}
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseRacesBackgroundWriterStop interleaves Close with the
// background writer's final rounds and its Stop: the writer's sweep and
// Close's flush loop must not deadlock on the write-back locks, and Stop
// must return with the pool clean.
func TestCloseRacesBackgroundWriterStop(t *testing.T) {
	dev := storage.NewMemDevice()
	p := New(Config{Frames: 8, PolicyFactory: factoryOf("lru"), Device: dev})
	for round := 0; round < 10; round++ {
		bw := p.StartBackgroundWriter(BackgroundWriterConfig{Interval: time.Millisecond})
		s := p.NewSession()
		for i := uint64(0); i < 8; i++ {
			ref, err := p.GetWrite(s, page.NewPageID(2, uint64(round)*8+i))
			if err != nil {
				t.Fatal(err)
			}
			ref.MarkDirty()
			ref.Release()
		}
		s.Flush()
		done := make(chan error, 1)
		go func() { done <- p.Close() }()
		bw.Stop()
		if err := <-done; err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if d := p.dirtyCount(); d != 0 {
		t.Fatalf("%d dirty pages after final round", d)
	}
}

// TestCloseRacingBGWriterRoundOnAnotherStripe pins down the shutdown race:
// a background-writer round holds a quarantined page's write in flight at
// the device while Close runs concurrently. The write-back of a dirty page
// on another write-back stripe must proceed in that window, Close must
// wait for — not skip — the in-flight page, and after both finish the
// device must hold every page: neither the race nor the duplicate drain
// may lose a quarantined copy.
func TestCloseRacingBGWriterRoundOnAnotherStripe(t *testing.T) {
	mem := storage.NewMemDevice()
	fault := storage.NewFaultDevice(mem, storage.FaultConfig{})
	gate := newGateDevice(fault)
	p := New(Config{
		Frames:        4,
		PolicyFactory: factoryOf("lru"),
		Wrapper:       core.Config{Batching: true, QueueSize: 8, BatchThreshold: 4},
		Device:        gate,
	})
	s := p.NewSession()
	get := func(id page.PageID) {
		t.Helper()
		ref, err := p.Get(s, id)
		if err != nil {
			t.Fatal(err)
		}
		ref.Release()
	}

	idA := pid(1) // the page that will be quarantined
	idB := pid(2) // a dirty page on another write-back stripe
	for p.sh.wbLock(idB) == p.sh.wbLock(idA) {
		idB++
	}

	// Park idA in the quarantine via a failed eviction write-back: four
	// more pages overflow the four frames, LRU evicts dirty idA, and the
	// dead device rejects the write.
	dirtyPage(t, p, s, idA)
	fault.SetWriteFailRate(1)
	for i := uint64(100); i < 104; i++ {
		get(pid(i))
	}
	if q := p.quarantineLen(); q != 1 {
		t.Fatalf("quarantined=%d after a failed eviction, want 1", q)
	}
	fault.SetWriteFailRate(0)
	dirtyPage(t, p, s, idB)

	// Hold the quarantine retry of idA in flight: the background writer's
	// round enters its drain and blocks inside the device write, holding
	// idA's write-back stripe.
	entered, release := gate.arm(idA)
	bg := p.StartBackgroundWriter(BackgroundWriterConfig{Interval: time.Millisecond})
	<-entered

	// Stripe independence: while idA's write is held, evicting dirty idB
	// must complete its write-back — nothing serializes it behind idA.
	for i := uint64(200); i < 204; i++ {
		get(pid(i))
	}
	if !mustRead(t, mem, idB).VerifyStamp(idB + stampShift) {
		t.Fatal("idB's eviction write-back did not land during idA's in-flight write")
	}

	// Close racing the held round: its drain must queue behind the
	// in-flight write on the stripe, not complete early and not drop the
	// page.
	closeErr := make(chan error, 1)
	go func() { closeErr <- p.Close() }()
	select {
	case err := <-closeErr:
		t.Fatalf("Close returned (%v) while idA's quarantined write was still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if err := <-closeErr; err != nil {
		t.Fatalf("Close: %v", err)
	}
	bg.Stop()

	// Nothing lost: the in-flight copy of idA landed exactly once (Close's
	// duplicate snapshot write was skipped by re-validation), and both
	// pages are durable at their last written version.
	if q := p.quarantineLen(); q != 0 {
		t.Fatalf("%d entries left quarantined after Close", q)
	}
	if d := p.dirtyCount(); d != 0 {
		t.Fatalf("%d dirty pages left after Close", d)
	}
	if !mustRead(t, mem, idA).VerifyStamp(idA + stampShift) {
		t.Fatal("the quarantined page was lost across the Close/bgwriter race")
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// mustRead fetches id from the raw memory device.
func mustRead(t *testing.T, mem *storage.MemDevice, id page.PageID) *page.Page {
	t.Helper()
	var pg page.Page
	if err := mem.ReadPage(id, &pg); err != nil {
		t.Fatalf("device read of %v: %v", id, err)
	}
	return &pg
}
