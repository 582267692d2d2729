package buffer

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bpwrapper/internal/page"
)

// Frame state word layout, in the style of PostgreSQL's BufferDesc.state:
// the pin count, dirty bit, lifecycle flags, and the frame generation are
// packed into one atomic.Uint64 so the entire hit-path pin protocol is a
// single CAS with no mutex.
//
//	bits  0..17  pin count (readers + one claim pin during transitions)
//	bit  18      dirty — page bytes differ from the device copy
//	bit  19      recycling — the frame is NOT resident: free, mid-load, or
//	             claimed by eviction/invalidation; tryPin must refuse it
//	bit  20      wlock — a writer holds the content exclusively (its wmu is
//	             held and readers have drained); tryPin backs off
//	bits 21..63  generation — bumped on EVERY ownership transition (claim
//	             from the table, claim from the free list, install), never
//	             reused, so a stale state snapshot can never CAS onto a
//	             frame that was recycled in between (ABA defense)
const (
	framePinBits   = 18
	framePinMask   = 1<<framePinBits - 1
	frameDirty     = 1 << 18
	frameRecycling = 1 << 19
	frameWLock     = 1 << 20
	frameGenShift  = 21
)

// stateGen extracts the generation bits of a state word.
func stateGen(s uint64) uint64 { return s >> frameGenShift }

// pinStatus is tryPin's outcome.
type pinStatus uint8

const (
	// pinOK: the pin is held and the returned tag is the live one.
	pinOK pinStatus = iota
	// pinRecycled: the frame no longer caches the requested page (or is
	// mid-transition); the caller must restart its table lookup.
	pinRecycled
	// pinBusy: the frame still caches the page but a writer holds it
	// exclusively (or the pin count is saturated); back off and retry.
	pinBusy
)

// Frame is one buffer slot: an 8 KB page image plus the metadata PostgreSQL
// keeps in a BufferDesc — the identity of the cached copy and the packed
// state word above. There is no frame mutex: pins are CAS transitions on
// the state word, and the only lock left is wmu, taken exclusively by
// writers (GetWrite) to serialize content-exclusive access among
// themselves; the resident-read path never touches it.
//
// The state word and the tag live alone on the leading cache line (and the
// struct is padded to a multiple of the line size), so pin CAS traffic on
// one frame never invalidates a neighbour frame's hot line through false
// sharing. slot shares that line because it is written once, before the
// frame is reachable, and read exactly where state is; ovNext because it is
// written only when a bucket overflows, one miss in thousands.
type Frame struct {
	state   atomic.Uint64
	tagPage atomic.Uint64 // page.PageID of the cached copy; InvalidPageID when not resident
	slot    uint32        // index in the pool's frames; every tag this frame issues carries it
	ovNext  uint32        // next frame (slot+1) in its bucket's overflow chain; guarded by the bucket mutex
	_       [40]byte      // state+tag own the first cache line

	// wmu serializes writers (GetWrite) on this frame. Writers acquire it
	// WITHOUT holding a pin — a pinned waiter would deadlock the current
	// holder's reader-drain — then pin, re-validate the tag, and set the
	// wlock bit. The read hit path never acquires it.
	wmu sync.Mutex

	data page.Page
	_    [48]byte // round the struct to a cache-line multiple
}

// initFree puts a zero-value frame into the free state (recycling, no
// pins, no tag). Called once per frame at pool construction.
func (f *Frame) initFree() {
	f.tagPage.Store(uint64(page.InvalidPageID))
	f.state.Store(frameRecycling)
}

// TagSnapshot returns the frame's buffer tag from a lock-free two-load
// read: state, tag, state again. The snapshot is valid only if the frame
// was stably resident across both loads — same generation, recycling bit
// clear — because tagPage changes only inside a recycling window that is
// bracketed by generation bumps. ok is false while the frame is free,
// mid-load, or being reclaimed.
func (f *Frame) TagSnapshot() (page.BufferTag, bool) {
	s1 := f.state.Load()
	p := page.PageID(f.tagPage.Load())
	s2 := f.state.Load()
	if (s1|s2)&frameRecycling != 0 || stateGen(s1) != stateGen(s2) {
		return page.BufferTag{}, false
	}
	return page.BufferTag{Page: p, Gen: stateGen(s1), Slot: f.slot}, true
}

// tryPin attempts to take a pin on the frame, atomically verifying that it
// still caches page id. The CAS doubles as the validation: any reclaim of
// the frame bumps the generation, so a successful CAS against the loaded
// state proves the tag read between load and CAS was the live one.
func (f *Frame) tryPin(id page.PageID) (page.BufferTag, pinStatus) {
	for {
		s := f.state.Load()
		if s&frameRecycling != 0 {
			return page.BufferTag{}, pinRecycled
		}
		if s&frameWLock != 0 || s&framePinMask == framePinMask {
			return page.BufferTag{}, pinBusy
		}
		if page.PageID(f.tagPage.Load()) != id {
			return page.BufferTag{}, pinRecycled
		}
		if f.state.CompareAndSwap(s, s+1) {
			return page.BufferTag{Page: id, Gen: stateGen(s), Slot: f.slot}, pinOK
		}
	}
}

// unpin drops one pin with a single fetch-and-sub.
func (f *Frame) unpin() {
	if n := f.state.Add(^uint64(0)); n&framePinMask == framePinMask {
		panic("buffer: unpin of unpinned frame")
	}
}

// tryClaim CASes the frame from the loaded state s — which must carry zero
// pins, no writer, and be resident (dirty is allowed: the bit stays set in
// the claimed state, telling the now-exclusive caller the bytes still need
// a write-back) — into the recycling state: one claim pin, generation
// bumped. A successful claim grants exclusive ownership (tryPin refuses
// recycling frames and the gen bump invalidates every stale snapshot), so
// the caller may then touch data and tagPage with plain accesses published
// later by install or toFree, which both overwrite the dirty bit.
func (f *Frame) tryClaim(s uint64) bool {
	if s&(framePinMask|frameRecycling|frameWLock) != 0 {
		panic("buffer: tryClaim of a pinned or non-resident state")
	}
	return f.state.CompareAndSwap(s, (stateGen(s)+1)<<frameGenShift|frameRecycling|s&frameDirty|1)
}

// claimFree takes ownership of a frame popped off the free list: the claim
// pin is set and the generation bumped while the recycling bit stays up
// until install publishes the new identity. The caller owns the frame
// exclusively (it is on no list and in no table), so a plain store
// suffices — no concurrent CAS can target a recycling frame.
func (f *Frame) claimFree() {
	s := f.state.Load()
	f.state.Store((stateGen(s)+1)<<frameGenShift | frameRecycling | 1)
}

// install publishes a claimed frame as resident: generation bumped,
// recycling cleared, the claim pin retained for the caller, the dirty bit
// and writer lock set as requested. It returns the tag readers will
// validate against. wlock is set by the miss path when the caller already
// holds wmu and wants content-exclusive access without a drain wait.
func (f *Frame) install(dirty, wlock bool) page.BufferTag {
	gen := stateGen(f.state.Load()) + 1
	s := gen<<frameGenShift | 1
	if dirty {
		s |= frameDirty
	}
	if wlock {
		s |= frameWLock
	}
	f.state.Store(s)
	return page.BufferTag{Page: page.PageID(f.tagPage.Load()), Gen: gen, Slot: f.slot}
}

// toFree parks an exclusively owned (claimed) frame in the free state:
// recycling stays set, the claim pin drops, the tag is invalidated. The
// generation is NOT bumped here — the claim that granted ownership already
// did, and the next claimFree will again.
func (f *Frame) toFree() {
	f.tagPage.Store(uint64(page.InvalidPageID))
	f.state.Store(stateGen(f.state.Load())<<frameGenShift | frameRecycling)
}

// setDirty sets the dirty bit (CAS loop; Go 1.22 has no atomic Or).
func (f *Frame) setDirty() {
	for {
		s := f.state.Load()
		if s&frameDirty != 0 || f.state.CompareAndSwap(s, s|frameDirty) {
			return
		}
	}
}

// lockContent escalates a pinned frame to content-exclusive access for a
// writer that holds wmu: set the wlock bit (stopping new reader pins),
// then wait for the existing readers to drain down to the writer's own
// pin. The spin escalates from Gosched to short sleeps so a long-held
// reader reference does not burn a core.
func (f *Frame) lockContent() {
	for {
		s := f.state.Load()
		if f.state.CompareAndSwap(s, s|frameWLock) {
			break
		}
	}
	for spins := 0; f.state.Load()&framePinMask != 1; spins++ {
		backoff(spins)
	}
}

// unlockContentAndUnpin releases a writer's exclusive hold in one CAS:
// wlock cleared and the writer's pin dropped together, so no window exists
// where the frame looks writer-locked but unpinned (or vice versa).
func (f *Frame) unlockContentAndUnpin() {
	for {
		s := f.state.Load()
		if s&framePinMask == 0 {
			panic("buffer: unpin of unpinned frame")
		}
		if f.state.CompareAndSwap(s, (s&^uint64(frameWLock))-1) {
			return
		}
	}
}

// backoff yields the processor, escalating to microsecond sleeps after a
// burst of scheduler yields, for spin loops that may wait on another
// goroutine's pin or lock.
func backoff(spins int) {
	if spins < 64 {
		runtime.Gosched()
	} else {
		time.Sleep(time.Microsecond)
	}
}

// PageRef is a pinned reference to a buffered page. The referenced bytes
// stay valid — and the page stays ineligible for eviction — until Release
// is called. A PageRef must be released exactly once and is not safe for
// concurrent use. Released references are recycled through a pool (the
// resident hit path must not allocate), so holding a PageRef past its
// Release — like holding its Data slice — is undefined: the released
// checks below catch stale use only until the object is reissued.
type PageRef struct {
	frame    *Frame
	id       page.PageID
	tag      page.BufferTag
	writable bool
	released bool
}

// refPool recycles PageRefs so a resident Get stays allocation-free.
var refPool = sync.Pool{New: func() any { return new(PageRef) }}

// newPageRef issues a recycled (or fresh) reference. It assigns field by
// field on purpose: `*r = PageRef{…}` builds the literal on the stack with
// 8-byte stores and copies it out with 16-byte loads, which the CPU cannot
// forward from those stores: a store-forwarding stall on every resident
// Get.
func newPageRef(f *Frame, id page.PageID, tag page.BufferTag, writable bool) *PageRef {
	r := refPool.Get().(*PageRef)
	r.frame, r.id, r.tag, r.writable, r.released = f, id, tag, writable, false
	return r
}

// ID returns the referenced page's identity.
func (r *PageRef) ID() page.PageID { return r.id }

// Frame returns the underlying buffer frame, for diagnostics and tests.
func (r *PageRef) Frame() *Frame { return r.frame }

// Tag returns the buffer tag of the cached copy this reference pins.
func (r *PageRef) Tag() page.BufferTag { return r.tag }

// Data returns the page bytes. The slice aliases the buffer frame: it is
// valid only until Release, and must not be written through unless the
// reference was obtained with GetWrite.
func (r *PageRef) Data() []byte {
	if r.released {
		panic("buffer: Data on released PageRef")
	}
	return r.frame.data.Data[:]
}

// MarkDirty records that the caller modified the page, scheduling a
// write-back before the frame can be recycled. It panics on read-only
// references: that is always a caller bug.
func (r *PageRef) MarkDirty() {
	if r.released {
		panic("buffer: MarkDirty on released PageRef")
	}
	if !r.writable {
		panic("buffer: MarkDirty on read-only PageRef")
	}
	r.frame.setDirty()
}

// Release drops the pin (and, for writable references, the content lock
// and the frame's writer mutex). It panics on double release.
func (r *PageRef) Release() {
	if r.released {
		panic("buffer: double Release of PageRef")
	}
	r.released = true
	if r.writable {
		r.frame.unlockContentAndUnpin()
		r.frame.wmu.Unlock()
	} else {
		r.frame.unpin()
	}
	refPool.Put(r)
}
