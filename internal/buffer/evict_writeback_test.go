package buffer

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bpwrapper/internal/core"
	"bpwrapper/internal/obs"
	"bpwrapper/internal/page"
	"bpwrapper/internal/reqtrace"
	"bpwrapper/internal/sched"
	"bpwrapper/internal/storage"
)

// These tests pin down the eviction write-back protocol of shard.reclaim: a
// dirty victim is written to the device out of its claimed frame, behind an
// in-flight op on the page's bucket, and everybody who wants the page
// meanwhile waits on that op. Each opens the window deterministically —
// with writeback_order_test.go's gateDevice (the write is in the device) or
// with holdAt at sched.BufEvictWrite (the op is registered, the stripe not
// yet taken) — and waits on events, not sleeps.

// ioLog sits directly above the backing store and records, for one page,
// what truly reached it: "read" when a read is issued, "write" when a write
// has landed.
type ioLog struct {
	storage.Device
	id  page.PageID
	mu  sync.Mutex
	ops []string
}

func (d *ioLog) note(op string) {
	d.mu.Lock()
	d.ops = append(d.ops, op)
	d.mu.Unlock()
}

func (d *ioLog) seen() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string{}, d.ops...)
}

func (d *ioLog) ReadPage(id page.PageID, p *page.Page) error {
	if id == d.id {
		d.note("read")
	}
	return d.Device.ReadPage(id, p)
}

func (d *ioLog) WritePage(p *page.Page) error {
	err := d.Device.WritePage(p)
	if p.ID == d.id && err == nil {
		d.note("write")
	}
	return err
}

// holdAt parks the first goroutine that reaches sched point pt until
// release is closed; entered closes when it has arrived. Installs the
// process-wide sched hook, so its users must not run in parallel.
func holdAt(t *testing.T, pt sched.Point) (entered, release chan struct{}) {
	t.Helper()
	entered, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	t.Cleanup(sched.SetHook(func(p sched.Point) {
		if p == pt {
			once.Do(func() {
				close(entered)
				<-release
			})
		}
	}))
	return entered, release
}

// waitUntil polls cond (an event another goroutine is about to produce)
// until it holds, failing the test after five seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// errGate is the failure a gated write is armed with.
var errGate = errors.New("injected write failure at the gate")

// evictRig is a four-frame LRU pool over gate → log → mem with page 1
// dirtied to version 1 (Stamp(pid(1)+stampShift)), ready to be pushed out.
type evictRig struct {
	p    *Pool
	s    *Session
	gate *gateDevice
	log  *ioLog
	mem  *storage.MemDevice
}

func newEvictRig(t *testing.T, cfg Config) *evictRig {
	t.Helper()
	r := &evictRig{mem: storage.NewMemDevice()}
	r.log = &ioLog{Device: r.mem, id: pid(1)}
	r.gate = newGateDevice(r.log)
	cfg.Frames = 4
	cfg.Device = r.gate
	if cfg.PolicyFactory == nil {
		cfg.PolicyFactory = factoryOf("lru")
	}
	r.p = New(cfg)
	r.s = r.p.NewSession()
	dirtyPage(t, r.p, r.s, pid(1))
	r.log.ops = nil // the load that brought the page in is not of interest
	return r
}

// evict starts a backend that reads four other pages, which pushes page 1
// (the LRU page) out on the fourth; done closes when it is through.
func (r *evictRig) evict(t *testing.T) (done chan struct{}) {
	done = make(chan struct{})
	go func() {
		defer close(done)
		es := r.p.NewSession()
		for i := uint64(10); i < 14; i++ {
			ref, err := r.p.Get(es, pid(i))
			if err != nil {
				t.Errorf("evicting Get(%d): %v", i, err)
				return
			}
			ref.Release()
		}
	}()
	return done
}

// read starts a backend that misses on page 1 and delivers what it read.
func (r *evictRig) read(t *testing.T) chan page.Page {
	got := make(chan page.Page, 1)
	go func() {
		var pg page.Page
		defer func() { got <- pg }()
		ref, err := r.p.Get(r.p.NewSession(), pid(1))
		if err != nil {
			t.Errorf("Get of the page being evicted: %v", err)
			return
		}
		copy(pg.Data[:], ref.Data())
		ref.Release()
	}()
	return got
}

// deviceHolds fails the test unless the backing store holds page 1 at the
// given version.
func (r *evictRig) deviceHolds(t *testing.T, version uint64) {
	t.Helper()
	var back page.Page
	if err := r.mem.ReadPage(pid(1), &back); err != nil {
		t.Fatal(err)
	}
	if !back.VerifyStamp(pid(1) + page.PageID(version*stampShift)) {
		t.Fatalf("device does not hold version %d of the page", version)
	}
}

// evictWindows are the ways to stop page 1's eviction write-back part-way,
// for the tests that send a dependent in meanwhile: entered closes once the
// evictor is held, release lets it go on.
var evictWindows = []struct {
	name  string
	fails bool // the write then fails, and the bytes are parked
	hold  func(*testing.T, *evictRig) (entered, release chan struct{})
}{
	{"write in the device", false, func(_ *testing.T, r *evictRig) (_, _ chan struct{}) { return r.gate.arm(pid(1)) }},
	{"write fails", true, func(_ *testing.T, r *evictRig) (_, _ chan struct{}) { return r.gate.armFail(pid(1), errGate) }},
	{"op registered, stripe not taken", false, func(t *testing.T, _ *evictRig) (_, _ chan struct{}) { return holdAt(t, sched.BufEvictWrite) }},
}

// (i) A miss on a page whose eviction write is in the device waits for it,
// reads the device only after the write has landed, and so returns the new
// bytes.
func TestEvictWriteHoldsMissUntilDurable(t *testing.T) {
	r := newEvictRig(t, Config{})
	entered, release := r.gate.arm(pid(1))
	evicted := r.evict(t)
	<-entered

	got := r.read(t)
	waitUntil(t, "the miss to wait on the eviction", func() bool {
		if len(got) != 0 {
			t.Fatal("the miss returned while the page's eviction write was in flight")
		}
		return r.p.sh.evictWaits.Load() == 1
	})
	if ops := r.log.seen(); len(ops) != 0 {
		t.Fatalf("device saw %v for the page while its write was held", ops)
	}

	close(release)
	pg := <-got
	<-evicted
	if !pg.VerifyStamp(pid(1) + stampShift) {
		t.Fatal("the miss read stale bytes: it did not wait for the eviction's write")
	}
	if ops := r.log.seen(); !reflect.DeepEqual(ops, []string{"write", "read"}) {
		t.Fatalf("device saw %v for the page, want the write to land before the read is issued", ops)
	}
	st := r.p.Stats()
	if st.EvictWritebacks != 1 || st.MissWaitsEvict != 1 || st.MissWaitsLoad != 0 || st.Quarantined != 0 {
		t.Fatalf("stats %+v: want one direct write-back, one wait on it, nothing parked", st)
	}
}

// (ii) When the eviction's write fails the bytes are parked — once — the
// failure is counted and shows on the evicting request's trace, and the
// miss that waited adopts the parked copy, dirty.
func TestEvictWriteFailureParksOnce(t *testing.T) {
	var clock atomic.Int64
	r := newEvictRig(t, Config{
		RecorderSize: 64,
		Trace: reqtrace.Config{
			Enable: true, SampleEvery: 1, SLO: time.Hour,
			Clock: func() int64 { return clock.Add(100) },
		},
	})
	entered, release := r.gate.armFail(pid(1), errGate)
	evicted := r.evict(t)
	<-entered
	got := r.read(t)
	waitUntil(t, "the miss to wait on the eviction", func() bool { return r.p.sh.evictWaits.Load() == 1 })
	close(release)
	pg := <-got
	<-evicted

	if !pg.VerifyStamp(pid(1) + stampShift) {
		t.Fatal("the waiting miss did not get the parked bytes")
	}
	if ops := r.log.seen(); len(ops) != 0 {
		t.Fatalf("device saw %v for the page; the miss must adopt the parked copy, not read", ops)
	}
	parks := 0
	for _, ev := range r.p.sh.events.Events() {
		if ev.Kind == obs.EvQuarantinePark {
			parks++
			if ev.Arg1 != uint64(pid(1)) || ev.Arg2 != 1 {
				t.Fatalf("park event %+v, want page 1 as the quarantine's only entry", ev)
			}
		}
	}
	if parks != 1 {
		t.Fatalf("%d quarantine-park events, want exactly 1", parks)
	}
	st := r.p.Stats()
	if st.WriteBackFailures != 1 || st.EvictWritebacks != 0 {
		t.Fatalf("WriteBackFailures=%d EvictWritebacks=%d, want 1 and 0", st.WriteBackFailures, st.EvictWritebacks)
	}
	if st.Quarantined != 0 || st.Dirty != 1 {
		t.Fatalf("quarantined=%d dirty=%d after adoption, want the copy adopted as the one dirty page", st.Quarantined, st.Dirty)
	}
	var evictor uint64
	for _, sp := range r.p.Tracer().Spans() {
		if sp.Phase == reqtrace.PhaseDeviceWrite && sp.Arg2 == uint64(pid(1)) && sp.Arg1 == 1 {
			evictor = sp.Trace
		}
	}
	if evictor == 0 {
		t.Fatal("no failed device-write span for the page")
	}
	parked := false
	for _, sp := range r.p.Tracer().Spans() {
		if sp.Phase == reqtrace.PhaseQuarantine && sp.Arg2 == uint64(pid(1)) {
			if sp.Trace != evictor {
				t.Fatalf("quarantine span on trace %d, want the evicting request %d", sp.Trace, evictor)
			}
			parked = true
		}
	}
	if !parked {
		t.Fatal("no quarantine span on the evicting request's trace")
	}
	if err := r.p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r.deviceHolds(t, 1)
}

// (iii) Invalidate of a page whose eviction write-back is under way returns
// only once it is over, leaves nothing parked, and after it returns nothing
// of the page reaches the device.
func TestInvalidateWaitsForEvictWrite(t *testing.T) {
	for _, tc := range evictWindows {
		want := []string{"write"} // what the device has seen of the page, ever
		if tc.fails {
			want = []string{}
		}
		t.Run(tc.name, func(t *testing.T) {
			r := newEvictRig(t, Config{})
			entered, release := tc.hold(t, r)
			evicted := r.evict(t)
			<-entered

			invalidated := make(chan error, 1)
			go func() { invalidated <- r.p.Invalidate(pid(1)) }()
			waitUntil(t, "Invalidate to wait on the eviction", func() bool {
				if len(invalidated) != 0 {
					t.Fatal("Invalidate returned while the page's eviction write-back was under way")
				}
				return r.p.sh.evictWaits.Load() == 1
			})
			close(release)
			if err := <-invalidated; err != nil {
				t.Fatalf("Invalidate: %v", err)
			}
			if ops := r.log.seen(); !reflect.DeepEqual(ops, want) {
				t.Fatalf("device had seen %v of the page when Invalidate returned, want %v", ops, want)
			}
			if q := r.p.quarantineLen(); q != 0 {
				t.Fatalf("%d pages parked after Invalidate", q)
			}
			<-evicted
			if _, err := r.p.FlushDirty(); err != nil {
				t.Fatal(err)
			}
			if err := r.p.Close(); err != nil {
				t.Fatal(err)
			}
			if ops := r.log.seen(); !reflect.DeepEqual(ops, want) {
				t.Fatalf("device saw %v of the page; %v of it came after Invalidate returned", ops, ops[len(want):])
			}
		})
	}
}

// (iv) A flush whose write of version 1 fails leaves the frame dirty and
// parks nothing: the GetWrite that waited on the flush's pin is granted a
// dirty frame with the quarantine empty, and the eviction then writes its
// version 2 — the page's one write.
func TestFailedFlushLeavesFrameDirty(t *testing.T) {
	r := newEvictRig(t, Config{})
	flushWrite, releaseFlush := r.gate.armFail(pid(1), errGate)
	flushed := make(chan error, 1)
	go func() {
		_, err := r.p.FlushDirty()
		flushed <- err
	}()
	<-flushWrite

	granted, written := writeVersion(t, r.p, pid(1), 2)
	awaitWriterOnPin(t, r.p, pid(1), granted)
	close(releaseFlush)
	if err := <-flushed; !errors.Is(err, errGate) {
		t.Fatalf("FlushDirty = %v, want the gated failure", err)
	}
	if s := <-granted; s&frameDirty == 0 {
		t.Fatal("the failed flush left the frame clean")
	}
	if q := r.p.quarantineLen(); q != 0 {
		t.Fatalf("%d pages parked by a failed flush", q)
	}

	<-written
	<-r.evict(t)
	if q := r.p.quarantineLen(); q != 0 {
		t.Fatalf("%d pages parked after the eviction's write succeeded", q)
	}
	r.deviceHolds(t, 2)
	if ops := r.log.seen(); !reflect.DeepEqual(ops, []string{"write"}) {
		t.Fatalf("device saw %v for the page, want the one write of version 2", ops)
	}
}

// (v) A miss allocates nothing once the pool is warm, clean or dirty: no
// op, channel, closure or map to register it, no copy of the victim, and
// the policy reuses the node the eviction dropped.
func TestEvictMissAllocs(t *testing.T) {
	const frames = 64
	for _, dirty := range []bool{false, true} {
		p := New(Config{
			Frames:        frames,
			PolicyFactory: factoryOf("2q"),
			Wrapper:       core.Config{Batching: true, Prefetching: true},
			Device:        storage.NewNullDevice(),
		})
		s := p.NewSession()
		next := uint64(1)
		miss := func() {
			id := page.NewPageID(2, next)
			next++
			var ref *PageRef
			var err error
			if dirty {
				ref, err = p.GetWrite(s, id)
			} else {
				ref, err = p.Get(s, id)
			}
			if err != nil {
				t.Fatal(err)
			}
			if dirty {
				ref.MarkDirty()
			}
			ref.Release()
		}
		for i := 0; i < 20*frames; i++ {
			miss()
		}
		if n := testing.AllocsPerRun(10*frames, miss); n != 0 {
			t.Errorf("miss (dirty=%v) allocates %.0f times, want 0", dirty, n)
		}
		if st := p.Stats(); dirty && st.EvictWritebacks == 0 {
			t.Error("the dirty misses evicted nothing dirty")
		}
	}
}

// TestGetYieldsToDescheduledEvictor is the liveness regression for a reader
// that finds its page mapped to a frame already claimed but not yet
// unmapped, with the claimant off the processor. At GOMAXPROCS=1 nobody
// else can unmap the frame while the reader runs: it must yield after a
// retry or two, not spin out its time slice.
func TestGetYieldsToDescheduledEvictor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := New(Config{Frames: 2, PolicyFactory: factoryOf("fifo"), Device: storage.NewMemDevice()})
	s := p.NewSession()
	for i := uint64(1); i <= 2; i++ {
		ref, err := p.Get(s, pid(i))
		if err != nil {
			t.Fatal(err)
		}
		ref.Release()
	}

	var inWindow atomic.Bool
	var lookups, lookupsAtResume atomic.Int64
	read := make(chan error, 1)
	var once sync.Once
	t.Cleanup(sched.SetHook(func(pt sched.Point) {
		switch pt {
		case sched.BufReclaimClaim:
			// The evictor (this test's goroutine) has claimed page 1's
			// frame and not unmapped it. Start a reader of page 1 and go
			// off the processor; we are back on only when the reader
			// yields (or, spinning, is preempted some 10 ms later).
			once.Do(func() {
				inWindow.Store(true)
				go func() {
					ref, err := p.Get(p.NewSession(), pid(1))
					if err == nil {
						ref.Release()
					}
					read <- err
				}()
				// One yield need not reach the reader — the runtime may run
				// something else of its own first — so yield until the reader
				// has looked the frame up once; what is recorded is how far it
				// got before it gave the processor back.
				for i := 0; i < 10000 && lookups.Load() == 0; i++ {
					runtime.Gosched()
				}
				lookupsAtResume.Store(lookups.Load())
				inWindow.Store(false)
			})
		case sched.BufHitPin:
			if inWindow.Load() {
				lookups.Add(1)
			}
		}
	}))

	ref, err := p.Get(s, pid(3)) // evicts page 1, the oldest
	if err != nil {
		t.Fatal(err)
	}
	ref.Release()
	if err := <-read; err != nil {
		t.Fatalf("reader: %v", err)
	}
	if n := lookupsAtResume.Load(); n == 0 || n > 3 {
		t.Fatalf("the reader looked the claimed frame up %d times before the evictor got the processor back, want 1 to 3", n)
	}
}
