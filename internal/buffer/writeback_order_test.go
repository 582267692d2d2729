package buffer

import (
	"sync"
	"testing"
	"time"

	"bpwrapper/internal/core"
	"bpwrapper/internal/page"
	"bpwrapper/internal/storage"
)

// gateDevice holds one armed page's next write — or, armed with armRead,
// its next read — at the device boundary so tests can open an I/O-in-flight
// window deterministically: the entered channel closes when the held I/O has
// been issued, and it completes only after release is closed — reaching the
// device, or, armed with armFail, failing short of it. All other I/O passes
// through.
type gateDevice struct {
	storage.Device
	mu      sync.Mutex
	target  page.PageID
	armed   bool
	read    bool // the armed I/O is a read
	fail    error
	entered chan struct{}
	release chan struct{}
}

func newGateDevice(d storage.Device) *gateDevice { return &gateDevice{Device: d} }

func (d *gateDevice) arm(id page.PageID) (entered, release chan struct{}) {
	return d.armFail(id, nil)
}

func (d *gateDevice) armRead(id page.PageID) (entered, release chan struct{}) {
	return d.armIO(id, true, nil)
}

// armFail is arm with the held write's outcome chosen: a non-nil err is
// returned for it once released, and the bytes never reach the device.
func (d *gateDevice) armFail(id page.PageID, err error) (entered, release chan struct{}) {
	return d.armIO(id, false, err)
}

func (d *gateDevice) armIO(id page.PageID, read bool, err error) (entered, release chan struct{}) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.target, d.armed, d.read, d.fail = id, true, read, err
	d.entered = make(chan struct{})
	d.release = make(chan struct{})
	return d.entered, d.release
}

// hold holds the armed I/O, if this is it, until it is released, and returns
// the outcome it was armed with.
func (d *gateDevice) hold(id page.PageID, read bool) error {
	d.mu.Lock()
	hold := d.armed && d.read == read && id == d.target
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
	}
	return fail
}

func (d *gateDevice) WritePage(p *page.Page) error {
	if err := d.hold(p.ID, false); err != nil {
		return err
	}
	return d.Device.WritePage(p)
}

func (d *gateDevice) ReadPage(id page.PageID, p *page.Page) error {
	if err := d.hold(id, true); err != nil {
		return err
	}
	return d.Device.ReadPage(id, p)
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
	if p.quarantineLen() != 1 {
		t.Fatalf("quarantined=%d after failed eviction, want 1", p.quarantineLen())
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
	if p.quarantineLen() != 0 {
		t.Fatalf("%d entries left quarantined", p.quarantineLen())
	}
}

// frameOf returns the frame page id is mapped to, or nil.
func frameOf(p *Pool, id page.PageID) *Frame {
	f, _ := p.hitLookup(p.bucketFor(id), id)
	return f
}

// writeVersion starts a backend that GetWrites page id and stamps it at
// version v; granted receives the frame's state word as the write was
// granted, and done closes once the reference is released.
func writeVersion(t *testing.T, p *Pool, id page.PageID, v uint64) (granted chan uint64, done chan struct{}) {
	granted, done = make(chan uint64, 1), make(chan struct{})
	go func() {
		defer close(done)
		ref, err := p.GetWrite(p.NewSession(), id)
		if err != nil {
			t.Errorf("GetWrite(%v): %v", id, err)
			close(granted)
			return
		}
		granted <- ref.Frame().state.Load()
		var pg page.Page
		pg.Stamp(id + page.PageID(v*stampShift))
		copy(ref.Data(), pg.Data[:])
		ref.MarkDirty()
		ref.Release()
	}()
	return granted, done
}

// awaitWriterOnPin waits until a GetWrite of page id has raised the wlock
// bit of its frame and is draining a pin somebody else holds.
func awaitWriterOnPin(t *testing.T, p *Pool, id page.PageID, granted chan uint64) {
	t.Helper()
	f := frameOf(p, id)
	waitUntil(t, "the GetWrite to wait on the flush's pin", func() bool {
		if len(granted) != 0 {
			t.Fatal("the GetWrite returned while the page's flush write was in flight")
		}
		return f.state.Load()&frameWLock != 0
	})
}

// TestFlushWritesFromPinnedFrame checks the flush write window: the flush
// writes the page straight from its frame under a pin, so while the write
// is in the device nothing is parked and the frame is still dirty, misses
// evict the other frames around it, and a GetWrite of the page waits until
// the write is over. The newer version it writes then reaches the device.
func TestFlushWritesFromPinnedFrame(t *testing.T) {
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
	flushed := make(chan error, 1)
	go func() {
		_, err := p.FlushDirty()
		flushed <- err
	}()
	<-entered

	if q := p.quarantineLen(); q != 0 {
		t.Fatalf("quarantined=%d during in-flight flush write, want 0", q)
	}
	if d := p.dirtyCount(); d != 1 {
		t.Fatalf("dirty=%d during in-flight flush write, want 1", d)
	}
	// Page 1 is the LRU page, but its frame is pinned: every miss evicts
	// one of the other three.
	for i := uint64(10); i < 20; i++ {
		ref, err := p.Get(s, pid(i))
		if err != nil {
			t.Fatalf("miss during in-flight flush write: %v", err)
		}
		ref.Release()
	}
	granted, written := writeVersion(t, p, pid(1), 2)
	awaitWriterOnPin(t, p, pid(1), granted)

	close(release)
	if err := <-flushed; err != nil {
		t.Fatalf("FlushDirty: %v", err)
	}
	<-written
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var back page.Page
	if err := mem.ReadPage(pid(1), &back); err != nil {
		t.Fatal(err)
	}
	if !back.VerifyStamp(pid(1) + 2*stampShift) {
		t.Fatal("the device does not hold the version written after the flush")
	}
}

// TestFlushInFlightKeepsShardHealthy holds one flush write in the device
// and misses meanwhile: a healthy write in flight parks nothing, so the
// health ladder, which reads the quarantine as failed write-backs, must
// not shed a miss even under a one-entry quarantine cap.
func TestFlushInFlightKeepsShardHealthy(t *testing.T) {
	t.Run("cap1-shards1", func(t *testing.T) {
		gate := newGateDevice(storage.NewMemDevice())
		p := New(Config{
			Frames:        4,
			QuarantineCap: 1,
			PolicyFactory: factoryOf("lru"),
			Device:        gate,
		})
		s := p.NewSession()
		dirtyPage(t, p, s, pid(1))
		entered, release := gate.arm(pid(1))
		flushed := make(chan error, 1)
		go func() {
			_, err := p.FlushDirty()
			flushed <- err
		}()
		<-entered

		for i := uint64(2); i < 22; i++ {
			ref, err := p.Get(s, pid(i))
			if err != nil {
				t.Fatalf("miss on %v while a flush write is in flight: %v", pid(i), err)
			}
			ref.Release()
		}
		if h := p.evalHealth(); h != Healthy {
			t.Fatalf("health %v with a flush write in flight, want healthy", h)
		}
		close(release)
		if err := <-flushed; err != nil {
			t.Fatalf("FlushDirty: %v", err)
		}
		if st := p.Stats(); st.Shed != 0 || st.Quarantined != 0 {
			t.Fatalf("shed=%d quarantined=%d, want 0 and 0", st.Shed, st.Quarantined)
		}
	})
}

// TestFlushAllocs: a flush writes the page from its frame, so making a
// dirty page durable allocates nothing — there is no copy to park.
func TestFlushAllocs(t *testing.T) {
	p := New(Config{Frames: 4, PolicyFactory: factoryOf("lru"), Device: storage.NewNullDevice()})
	s := p.NewSession()
	dirtyPage(t, p, s, pid(1))
	f := frameOf(p, pid(1))
	flush := func() {
		f.setDirty()
		if wrote, err := p.flushFrame(f); !wrote || err != nil {
			t.Fatalf("flushFrame = %v, %v; want a write", wrote, err)
		}
	}
	if n := testing.AllocsPerRun(100, flush); n != 0 {
		t.Errorf("a flushed page allocates %.0f times, want 0", n)
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
	if p.quarantineLen() != 1 {
		t.Fatalf("quarantined=%d after failed eviction, want 1", p.quarantineLen())
	}
	dev.SetWriteFailRate(0)

	if err := p.Invalidate(pid(1)); err != nil {
		t.Fatalf("Invalidate: %v", err)
	}
	if q := p.quarantineLen(); q != 0 {
		t.Fatalf("quarantined=%d after Invalidate, want 0", q)
	}
	if _, err := p.FlushDirty(); err != nil {
		t.Fatalf("FlushDirty: %v", err)
	}
	if n := mem.Len(); n != 0 {
		t.Fatalf("device holds %d pages after invalidate+flush; discarded data was resurrected", n)
	}
}

// TestFlushRespectsQuarantineCap checks that a failing flush never grows
// the quarantine: with it full of a failed eviction's entry, a flush whose
// write fails leaves its frame dirty and parks nothing — and recovery still
// drains everything to storage.
func TestFlushRespectsQuarantineCap(t *testing.T) {
	mem := storage.NewMemDevice()
	dev := storage.NewFaultDevice(mem, storage.FaultConfig{})
	// A full quarantine flips the pool read-only under health admission;
	// switch it off so the misses after the park are served.
	p := disableShedding(New(Config{
		Frames:        4,
		PolicyFactory: factoryOf("lru"),
		Device:        dev,
		QuarantineCap: 1,
	}))
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
	if p.quarantineLen() != 1 {
		t.Fatalf("quarantined=%d, want 1 (cap)", p.quarantineLen())
	}
	if p.dirtyCount() != 1 {
		t.Fatalf("dirty=%d, want page 2 still resident dirty", p.dirtyCount())
	}

	// The flush's write of page 2 fails: the page stays dirty in its frame
	// for a later round, and the quarantine stays at its cap.
	if _, err := p.FlushDirty(); err == nil {
		t.Fatal("flush with a dead device and full quarantine returned nil error")
	}
	if q := p.quarantineLen(); q > 1 {
		t.Fatalf("quarantine grew to %d entries past its cap of 1", q)
	}
	if p.dirtyCount() != 1 {
		t.Fatalf("dirty=%d after capped flush, want 1", p.dirtyCount())
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
