package buffer

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"bpwrapper/internal/core"
	"bpwrapper/internal/page"
	"bpwrapper/internal/sched"
)

// TestHotStructPadding pins the cache-line layout the lock-free hit path
// depends on: the frame's state word and tag own the leading line, the
// whole Frame is a multiple of the line size (so frames in the pool's
// slice never share a line), and the reader side of a bucket is exactly
// one line with nothing of the writer side on it.
func TestHotStructPadding(t *testing.T) {
	if s := unsafe.Sizeof(Frame{}); s%64 != 0 {
		t.Errorf("Frame size %d is not a cache-line multiple", s)
	}
	if off := unsafe.Offsetof(Frame{}.wmu); off != 64 {
		t.Errorf("Frame.wmu at offset %d, want 64: state+tag must own the first line", off)
	}
	if s := unsafe.Sizeof(bucket{}); s != 64 {
		t.Errorf("bucket size %d, want 64 (the one line a probe reads)", s)
	}
	if s := unsafe.Sizeof(bucketW{}); s != 24 {
		t.Errorf("bucketW size %d, want 24 (mutex, op chain, overflow chain)", s)
	}
}

// TestFramePinStates covers the tryPin outcome matrix against a single
// frame walked through its lifecycle by hand.
func TestFramePinStates(t *testing.T) {
	var f Frame
	f.initFree()
	if _, st := f.tryPin(1); st != pinRecycled {
		t.Fatalf("tryPin on free frame: got %v, want pinRecycled", st)
	}

	f.claimFree()
	f.tagPage.Store(1)
	tag := f.install(false, false)
	if tag.Page != 1 {
		t.Fatalf("install tag = %+v, want page 1", tag)
	}
	f.unpin()

	if got, st := f.tryPin(1); st != pinOK || got != tag {
		t.Fatalf("tryPin(1) = %+v, %v; want %+v, pinOK", got, st, tag)
	}
	if _, st := f.tryPin(2); st != pinRecycled {
		t.Fatalf("tryPin with wrong id: got %v, want pinRecycled", st)
	}

	// A writer's content lock makes readers back off rather than restart.
	f.wmu.Lock()
	f.lockContent() // we hold the only pin, drains immediately
	if _, st := f.tryPin(1); st != pinBusy {
		t.Fatalf("tryPin under wlock: got %v, want pinBusy", st)
	}
	f.unlockContentAndUnpin()
	f.wmu.Unlock()

	// A claimed (recycling) frame refuses pins even before the tag moves.
	s := f.state.Load()
	if !f.tryClaim(s) {
		t.Fatalf("tryClaim of quiescent resident frame failed")
	}
	if _, st := f.tryPin(1); st != pinRecycled {
		t.Fatalf("tryPin on claimed frame: got %v, want pinRecycled", st)
	}
	f.toFree()
	if n := f.state.Load() & framePinMask; n != 0 {
		t.Fatalf("pin count after toFree = %d, want 0", n)
	}
}

// TestFramePinEvictRace hammers one frame with concurrent pinners and an
// evictor that keeps recycling the frame between two identities. The oracle:
// a pin that succeeds for page id must observe that identity (and a clear
// recycling bit) for as long as it is held — i.e. no pin ever lands on a
// recycled generation — and the pin count never underflows (unpin panics on
// underflow) or leaks (must be zero at the end).
func TestFramePinEvictRace(t *testing.T) {
	const (
		idA     = page.PageID(7)
		idB     = page.PageID(11)
		pinners = 4
		iters   = 20000
	)
	var f Frame
	f.initFree()
	f.claimFree()
	f.tagPage.Store(uint64(idA))
	f.install(false, false)
	f.unpin()

	var stop atomic.Bool
	var wg sync.WaitGroup
	// Evictor: claim the frame whenever it is unpinned, swap its identity,
	// republish. Every transition bumps the generation.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cur := idA
		for i := 0; i < iters; i++ {
			for {
				s := f.state.Load()
				if s&(framePinMask|frameRecycling|frameWLock) != 0 {
					if stop.Load() {
						return
					}
					continue
				}
				if f.tryClaim(s) {
					break
				}
			}
			if cur == idA {
				cur = idB
			} else {
				cur = idA
			}
			f.tagPage.Store(uint64(cur))
			f.install(false, false)
			f.unpin()
		}
	}()
	for p := 0; p < pinners; p++ {
		want := idA
		if p%2 == 1 {
			want = idB
		}
		wg.Add(1)
		go func(want page.PageID) {
			defer wg.Done()
			defer stop.Store(true)
			for i := 0; i < iters; i++ {
				tag, st := f.tryPin(want)
				if st != pinOK {
					continue
				}
				s := f.state.Load()
				if s&frameRecycling != 0 {
					t.Errorf("pinned frame has recycling bit set (state %#x)", s)
				}
				if got := page.PageID(f.tagPage.Load()); got != want {
					t.Errorf("pin for page %d landed on recycled frame now caching %d (tag %+v)",
						want, got, tag)
				}
				f.unpin()
				if t.Failed() {
					return
				}
			}
		}(want)
	}
	wg.Wait()
	if n := f.state.Load() & framePinMask; n != 0 {
		t.Fatalf("pin count leaked: %d pins outstanding after all goroutines exited", n)
	}
}

// TestBucketTornRead gates a bucket writer mid-seqlock-window via the sched
// hook and asserts the optimistic probe reports the read as torn
// for the whole window, then resolves once the writer finishes. Installs
// the process-wide sched hook, so it must not run in parallel with other
// hook users.
func TestBucketTornRead(t *testing.T) {
	p, b := bareTable(8)
	const slot = 7

	inWindow := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	restore := sched.SetHook(func(pt sched.Point) {
		if pt == sched.BufBucketWrite {
			once.Do(func() {
				close(inWindow)
				<-release
			})
		}
	})
	defer restore()

	done := make(chan struct{})
	go func() {
		defer close(done)
		b.w.mu.Lock()
		p.insertLocked(b, 42, &p.frames[slot])
		b.w.mu.Unlock()
	}()

	<-inWindow // writer holds the seqlock odd, paused mid-mutation
	for i := 0; i < 3; i++ {
		if _, pr := b.lookupOptimistic(42); pr != probeTorn {
			t.Errorf("lookupOptimistic reported %d, not a torn read, inside a writer's seqlock window", pr)
		}
	}
	close(release)
	<-done

	got, pr := b.lookupOptimistic(42)
	if pr != probeStable || got != slot {
		t.Fatalf("post-write lookupOptimistic = (%d, %d), want (%d, stable)", got, pr, slot)
	}
	if _, pr := b.lookupOptimistic(99); pr != probeStable {
		t.Fatalf("definitive miss reported %d, not stable, with no writer active", pr)
	}
}

// bareTable is a pool of n frames, each tagged with page slot+1 as a mapped
// frame would be, and nothing else — enough to drive its first bucket.
func bareTable(n int) (*Pool, bucketRef) {
	p := &Pool{frames: make([]Frame, n), buckets: make([]bucket, 1), bucketWs: make([]bucketW, 1)}
	for i := range p.frames {
		p.frames[i].slot = uint32(i)
		p.frames[i].tagPage.Store(uint64(i + 1))
	}
	return p, p.bucketAt(0)
}

// TestTornProbesFallBackToMutex drives a Get down the whole ladder: a miss
// installing a second page in the resident page's bucket is held at
// BufBucketWrite, sequence odd and mutex taken, so the reader's probe and
// every one of its maxOptimisticRetries retries tear, and it falls back to
// the mutex — which it gets, with the right frame, once the writer moves on.
func TestTornProbesFallBackToMutex(t *testing.T) {
	p := newTestPool(8, core.Config{})
	ids := colliding(len(p.buckets), 2)
	resident, incoming := ids[0], ids[1]
	s := p.NewSession()
	ref, err := p.Get(s, resident)
	if err != nil {
		t.Fatal(err)
	}
	ref.Release()
	s.Flush()
	before := p.Stats()

	inWindow, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	defer sched.SetHook(func(pt sched.Point) {
		if pt == sched.BufBucketWrite {
			once.Do(func() {
				close(inWindow)
				<-release
			})
		}
	})()
	writer := make(chan error, 1)
	go func() {
		ws := p.NewSession()
		ref, err := p.Get(ws, incoming)
		if err == nil {
			ref.Release()
			ws.Flush()
		}
		writer <- err
	}()
	<-inWindow

	reader := make(chan error, 1)
	go func() {
		ref, err := p.Get(s, resident)
		if err == nil {
			if !refStamped(ref, resident) {
				err = fmt.Errorf("the fallback found another page's frame for %v", resident)
			}
			ref.Release()
			s.Flush()
		}
		reader <- err
	}()
	// The reader counts its fallback, then blocks on the bucket mutex the
	// held writer owns: only then may the writer go on.
	for deadline := time.Now().Add(10 * time.Second); p.hp.fallbacks.Load() == before.HitpathFallbacks; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("the reader never fell back to the mutex")
		}
	}
	close(release)
	if err := <-writer; err != nil {
		t.Fatalf("writer: %v", err)
	}
	if err := <-reader; err != nil {
		t.Fatalf("reader: %v", err)
	}
	st := p.Stats()
	retries, fallbacks := st.HitpathRetries-before.HitpathRetries, st.HitpathFallbacks-before.HitpathFallbacks
	fast, hits := st.HitpathFast-before.HitpathFast, st.Hits-before.Hits
	if retries != maxOptimisticRetries || fallbacks != 1 || fast != 0 || hits != 1 {
		t.Fatalf("retries %d fallbacks %d fast %d hits %d, want %d/1/0/1",
			retries, fallbacks, fast, hits, maxOptimisticRetries)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBucketOverflowFallback checks that an optimistic probe refuses to
// report a definitive miss while entries live in the overflow chain — the
// page might be resident there, invisible to the lock-free slot scan.
func TestBucketOverflowFallback(t *testing.T) {
	p, b := bareTable(bucketSlots + 1)
	b.w.mu.Lock()
	for i := range p.frames {
		p.insertLocked(b, page.PageID(i+1), &p.frames[i])
	}
	b.w.mu.Unlock()

	// The spilled entry is findable under the lock but not optimistically.
	spilled := page.PageID(bucketSlots + 1)
	if got := p.lookupLocked(b, spilled); got != &p.frames[bucketSlots] {
		t.Fatalf("lookupLocked lost the overflow entry")
	}
	if _, pr := b.lookupOptimistic(spilled); pr != probeOverflow {
		t.Fatalf("optimistic probe of an overflowed page reported %d, not overflow", pr)
	}
	// Even a probe for an id in the slot array that misses must fall back:
	// stable misses are only trustworthy with an empty overflow.
	if _, pr := b.lookupOptimistic(page.PageID(999)); pr != probeOverflow {
		t.Fatalf("optimistic miss reported %d, not overflow, while overflow is nonempty", pr)
	}
	// Draining the overflow restores lock-free definitive misses.
	b.w.mu.Lock()
	p.removeLocked(b, spilled)
	b.w.mu.Unlock()
	if _, pr := b.lookupOptimistic(page.PageID(999)); pr != probeStable {
		t.Fatalf("optimistic miss still %d, not stable, after overflow drained", pr)
	}
}
