package buffer

import (
	"sync"
	"testing"
	"time"

	"bpwrapper/internal/core"
	"bpwrapper/internal/page"
	"bpwrapper/internal/storage"
)

// gateDevice holds one armed page's next write at the device boundary so
// tests can open a write-in-flight window deterministically: the entered
// channel closes when the held write has been issued, and the write
// completes only after release is closed — reaching the device, or, armed
// with armFail, failing short of it. All other I/O passes through.
type gateDevice struct {
	storage.Device
	mu      sync.Mutex
	target  page.PageID
	armed   bool
	fail    error
	entered chan struct{}
	release chan struct{}
}

func newGateDevice(d storage.Device) *gateDevice { return &gateDevice{Device: d} }

func (d *gateDevice) arm(id page.PageID) (entered, release chan struct{}) {
	return d.armFail(id, nil)
}

// armFail is arm with the held write's outcome chosen: a non-nil err is
// returned for it once released, and the bytes never reach the device.
func (d *gateDevice) armFail(id page.PageID, err error) (entered, release chan struct{}) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.target, d.armed, d.fail = id, true, err
	d.entered = make(chan struct{})
	d.release = make(chan struct{})
	return d.entered, d.release
}

func (d *gateDevice) WritePage(p *page.Page) error {
	d.mu.Lock()
	hold := d.armed && p.ID == d.target
	var entered, release chan struct{}
	var fail error
	if hold {
		d.armed = false
		entered, release, fail = d.entered, d.release, d.fail
	}
	d.mu.Unlock()
	if hold {
		close(entered)
		<-release
		if fail != nil {
			return fail
		}
	}
	return d.Device.WritePage(p)
}

// TestStaleWriteBackCannotRevertNewerWrite pins down the lost-update
// interleaving: a quarantined copy v1 whose retry write is in flight is
// adopted by a miss, modified to v2, and re-evicted. The v2 write-back
// must be ordered after the in-flight v1 write (per-page stripe in
// writeQuarantined), so the device ends at v2 — before the fix, v2 could
// land first and the late v1 write silently reverted it.
func TestStaleWriteBackCannotRevertNewerWrite(t *testing.T) {
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

	// Park v1 in the quarantine via a failed eviction write-back.
	dirtyPage(t, p, s, pid(1))
	fault.SetWriteFailRate(1)
	for i := uint64(10); i < 18; i++ {
		ref, err := p.Get(s, pid(i))
		if err != nil {
			t.Fatal(err)
		}
		ref.Release()
	}
	if p.QuarantineLen() != 1 {
		t.Fatalf("quarantined=%d after failed eviction, want 1", p.QuarantineLen())
	}
	fault.SetWriteFailRate(0)

	// Start a quarantine drain and hold its v1 write in flight.
	entered, release := gate.arm(pid(1))
	var drainErr error
	drainDone := make(chan struct{})
	go func() {
		defer close(drainDone)
		_, _, drainErr = p.drainQuarantine()
	}()
	<-entered

	// Adopt v1 while the write is in flight, then modify to v2.
	ref, err := p.Get(s, pid(1))
	if err != nil {
		t.Fatal(err)
	}
	var got page.Page
	copy(got.Data[:], ref.Data())
	ref.Release()
	if !got.VerifyStamp(pid(1) + stampShift) {
		t.Fatal("adoption during in-flight write served stale bytes")
	}
	ref, err = p.GetWrite(s, pid(1))
	if err != nil {
		t.Fatal(err)
	}
	var v2 page.Page
	v2.Stamp(pid(1) + 2*stampShift)
	copy(ref.Data(), v2.Data[:])
	ref.MarkDirty()
	ref.Release()

	// Re-evict page 1: its v2 write-back must wait for the in-flight v1.
	evictDone := make(chan struct{})
	go func() {
		defer close(evictDone)
		es := p.NewSession()
		for i := uint64(30); i < 35; i++ {
			ref, err := p.Get(es, pid(i))
			if err != nil {
				t.Error(err)
				return
			}
			ref.Release()
		}
	}()
	// Give the evicting write-back time to queue behind the stripe, then
	// let v1 land. The fix guarantees v2 is written strictly after.
	time.Sleep(100 * time.Millisecond)
	close(release)
	<-drainDone
	<-evictDone
	if drainErr != nil {
		t.Fatalf("drain: %v", drainErr)
	}

	var back page.Page
	if err := mem.ReadPage(pid(1), &back); err != nil {
		t.Fatal(err)
	}
	if !back.VerifyStamp(pid(1) + 2*stampShift) {
		t.Fatal("stale in-flight write reverted the device to v1 after v2 was written")
	}
	if p.QuarantineLen() != 0 {
		t.Fatalf("%d entries left quarantined", p.QuarantineLen())
	}
}

// TestFlushParksBeforeClearingDirty checks the flush write window: while a
// flush's write is in flight the frame no longer looks dirty, so an
// eviction in that window must find the page parked in the quarantine and
// a subsequent miss must adopt those bytes — not re-read a stale version
// from the device.
func TestFlushParksBeforeClearingDirty(t *testing.T) {
	mem := storage.NewMemDevice()
	gate := newGateDevice(mem)
	p := New(Config{
		Frames:        4,
		PolicyFactory: factoryOf("lru"),
		Wrapper:       core.Config{Batching: true, QueueSize: 8, BatchThreshold: 4},
		Device:        gate,
	})
	s := p.NewSession()

	dirtyPage(t, p, s, pid(1))
	entered, release := gate.arm(pid(1))
	var flushErr error
	flushDone := make(chan struct{})
	go func() {
		defer close(flushDone)
		_, flushErr = p.FlushDirty()
	}()
	<-entered

	// The write is in flight: the frame is clean but the copy must be
	// parked so the page cannot be silently dropped by an eviction.
	if q := p.QuarantineLen(); q != 1 {
		t.Fatalf("quarantined=%d during in-flight flush write, want 1", q)
	}
	if d := p.DirtyCount(); d != 0 {
		t.Fatalf("dirty=%d during in-flight flush write, want 0", d)
	}

	// Evict the now-clean page 1, then miss on it: adoption must serve
	// the flushed bytes, not the device's (stale) synthesized content.
	for i := uint64(10); i < 14; i++ {
		ref, err := p.Get(s, pid(i))
		if err != nil {
			t.Fatal(err)
		}
		ref.Release()
	}
	ref, err := p.Get(s, pid(1))
	if err != nil {
		t.Fatal(err)
	}
	var got page.Page
	copy(got.Data[:], ref.Data())
	ref.Release()
	if !got.VerifyStamp(pid(1) + stampShift) {
		t.Fatal("miss during in-flight flush write read stale device data")
	}

	close(release)
	<-flushDone
	if flushErr != nil {
		t.Fatalf("FlushDirty: %v", flushErr)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var back page.Page
	if err := mem.ReadPage(pid(1), &back); err != nil {
		t.Fatal(err)
	}
	if !back.VerifyStamp(pid(1) + stampShift) {
		t.Fatal("page contents never reached storage")
	}
}

// TestInvalidateDiscardsQuarantinedCopy checks that invalidating a page
// also discards its quarantined copy: a page evicted with a failed
// write-back and then invalidated must not be resurrected onto the device
// by a later quarantine drain.
func TestInvalidateDiscardsQuarantinedCopy(t *testing.T) {
	p, dev, mem := flakyPool(4)
	s := p.NewSession()

	dirtyPage(t, p, s, pid(1))
	dev.SetWriteFailRate(1)
	for i := uint64(10); i < 18; i++ {
		ref, err := p.Get(s, pid(i))
		if err != nil {
			t.Fatal(err)
		}
		ref.Release()
	}
	if p.QuarantineLen() != 1 {
		t.Fatalf("quarantined=%d after failed eviction, want 1", p.QuarantineLen())
	}
	dev.SetWriteFailRate(0)

	if err := p.Invalidate(pid(1)); err != nil {
		t.Fatalf("Invalidate: %v", err)
	}
	if q := p.QuarantineLen(); q != 0 {
		t.Fatalf("quarantined=%d after Invalidate, want 0", q)
	}
	if _, err := p.FlushDirty(); err != nil {
		t.Fatalf("FlushDirty: %v", err)
	}
	if n := mem.Len(); n != 0 {
		t.Fatalf("device holds %d pages after invalidate+flush; discarded data was resurrected", n)
	}
}

// TestFlushRespectsQuarantineCap checks the cap bounds every insertion
// path: with the quarantine full of failed entries, flushes leave frames
// dirty instead of parking past the cap — and recovery still drains
// everything to storage.
func TestFlushRespectsQuarantineCap(t *testing.T) {
	mem := storage.NewMemDevice()
	dev := storage.NewFaultDevice(mem, storage.FaultConfig{})
	p := New(Config{
		Frames:        4,
		PolicyFactory: factoryOf("lru"),
		Device:        dev,
		QuarantineCap: 1,
		// A full quarantine flips the shard read-only under health
		// admission; disable it so the flush-cap path itself is exercised.
		Health: HealthConfig{Disable: true},
	})
	s := p.NewSession()
	dirtyPage(t, p, s, pid(1))
	dirtyPage(t, p, s, pid(2))
	dev.SetWriteFailRate(1)

	// Fill the quarantine: evicting dirty page 1 fails its write-back.
	for i := uint64(10); i < 16; i++ {
		ref, err := p.Get(s, pid(i))
		if err != nil {
			t.Fatal(err)
		}
		ref.Release()
	}
	if p.QuarantineLen() != 1 {
		t.Fatalf("quarantined=%d, want 1 (cap)", p.QuarantineLen())
	}
	if p.DirtyCount() != 1 {
		t.Fatalf("dirty=%d, want page 2 still resident dirty", p.DirtyCount())
	}

	// A flush with the quarantine at capacity must not park past the cap;
	// page 2 stays dirty for a later round rather than risking loss.
	if _, err := p.FlushDirty(); err == nil {
		t.Fatal("flush with a dead device and full quarantine returned nil error")
	}
	if q := p.QuarantineLen(); q > 1 {
		t.Fatalf("quarantine grew to %d entries past its cap of 1", q)
	}
	if p.DirtyCount() != 1 {
		t.Fatalf("dirty=%d after capped flush, want 1", p.DirtyCount())
	}

	dev.SetWriteFailRate(0)
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i := uint64(1); i <= 2; i++ {
		var back page.Page
		if err := mem.ReadPage(pid(i), &back); err != nil {
			t.Fatal(err)
		}
		if !back.VerifyStamp(pid(i) + stampShift) {
			t.Fatalf("page %d lost across the capped-flush episode", i)
		}
	}
}
