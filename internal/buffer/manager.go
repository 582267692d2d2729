package buffer

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"bpwrapper/internal/core"
	"bpwrapper/internal/obs"
	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/reqtrace"
	"bpwrapper/internal/sched"
)

// quarCtx is the trace context of the request that parked a quarantine
// entry: the trace ID and the park timestamp, so the eventual write-back
// can be attributed with its full park-to-durable latency.
type quarCtx struct {
	trace uint64
	at    int64
}

// hitpathCounters tracks how resident-page lookups were served. fast is
// folded in from per-session staging (see Session.stageHit); the slow-path
// counters are bumped directly — they are rare by construction, so their
// cacheline traffic is irrelevant.
type hitpathCounters struct {
	fast        atomic.Int64 // hits served with zero mutex acquisitions
	retries     atomic.Int64 // optimistic probes retried after a torn read
	fallbacks   atomic.Int64 // lookups that gave up and took the bucket mutex
	bucketLocks atomic.Int64 // bucket mutex acquisitions (all access paths)
	frameLocks  atomic.Int64 // frame wmu acquisitions (writer paths)
}

// wbStripes is the number of per-page write-back serialization stripes.
const wbStripes = 64

// The page table is two four-slot buckets per frame: at full residency one
// bucket in 5,800 holds more than four pages and 0.04 % of the pages live
// in an overflow chain, for a table of 2 × (64 + 24) = 176 bytes per frame
// (DESIGN.md §12 has the arithmetic).
const (
	bucketSlots     = 4
	bucketsPerFrame = 2
)

// tableBuckets sizes the page table: exactly bucketsPerFrame per frame — no
// rounding up to a power of two, no ceiling short of what bucketIndex can
// address — so occupancy and bytes per frame hold at every pool size.
func tableBuckets(frames int) int {
	if frames > 1<<31/bucketsPerFrame {
		panic(fmt.Sprintf("buffer: a pool of %d frames is more than its page table can index", frames))
	}
	return bucketsPerFrame * frames
}

// bucketIndex scales the low half of id's mixed hash onto n buckets; unlike
// a mask it serves any n.
func bucketIndex(id page.PageID, n int) int {
	return int(uint64(uint32(mix64(uint64(id)))) * uint64(n) >> 32)
}

// maxOptimisticRetries bounds how often a torn optimistic probe is retried
// before the lookup falls back to the bucket mutex.
const maxOptimisticRetries = 4

// bucket is the reader side of one hash-table partition, and exactly one
// cache line — all of the table a probe touches: a seqlock (the same
// even/odd protocol as the obs recorder) over a small open-addressed array
// of page id → frame, the frame named by its index in the pool's frames.
// Readers snapshot seq, probe the slots with atomic loads, and re-validate
// seq; an odd or changed seq means a writer was mutating and the probe
// result is torn.
//
// The rare overflow beyond bucketSlots spills into a chain that readers
// cannot probe lock-free; overflowN is read inside the seq window so an
// optimistic probe knows to fall back to the mutex rather than report a
// (false) definitive miss.
type bucket struct {
	seq       atomic.Uint64
	ids       [bucketSlots]atomic.Uint64
	slots     [bucketSlots]atomic.Uint32
	overflowN atomic.Int32
	_         [4]byte // 64 bytes: writers on one bucket never invalidate a neighbour under a reader
}

// bucketW is what only a bucket's writers touch — miss install, eviction,
// invalidation — in an array of its own, off the line readers probe. They
// mutate the reader line only under mu, bumping seq to odd before the first
// store and back to even after the last, so mu is never on the hit path.
// Both chains are intrusive, so neither registering an op nor overflowing
// allocates: ops through the sessions' loadOps, the overflow through the
// frames themselves (Frame.ovNext), each keyed by the page its tag names —
// a mapped frame's tagPage is its table key from before the insert until
// after the remove.
type bucketW struct {
	mu  sync.Mutex
	ops *loadOp // in-flight ops on this bucket's pages, chained; guarded by mu
	ov  uint32  // overflow chain: slot+1 of its first frame, 0 for none; guarded by mu
}

// bucketRef is one bucket, both sides of it.
type bucketRef struct {
	*bucket
	w *bucketW
}

// probe is what a lock-free bucket probe learned.
type probe uint8

const (
	probeStable   probe = iota // the answer holds: id's frame, or a definitive miss
	probeTorn                  // the probe raced a writer (odd or changed seq): a retry may settle it
	probeOverflow              // id is in no slot and the overflow chain, which only the mutex reaches, is not empty
)

// lookupOptimistic probes the bucket without any lock. With probeStable,
// slot is the frame caching id, or -1 for a definitive miss; otherwise the
// caller must retry (probeTorn) or take the mutex.
func (b *bucket) lookupOptimistic(id page.PageID) (slot int, pr probe) {
	s1 := b.seq.Load()
	if s1&1 != 0 {
		return -1, probeTorn
	}
	slot = -1
	for i := 0; i < bucketSlots; i++ {
		if page.PageID(b.ids[i].Load()) == id {
			slot = int(b.slots[i].Load())
			break
		}
	}
	ov := b.overflowN.Load()
	if b.seq.Load() != s1 {
		return -1, probeTorn
	}
	if slot < 0 && ov != 0 {
		return -1, probeOverflow
	}
	return slot, probeStable
}

// lookupLocked probes b under its mutex (or at quiescence) and returns the
// frame caching id, or nil.
func (p *Pool) lookupLocked(b bucketRef, id page.PageID) *Frame {
	for i := 0; i < bucketSlots; i++ {
		if page.PageID(b.ids[i].Load()) == id {
			return &p.frames[b.slots[i].Load()]
		}
	}
	for s := b.w.ov; s != 0; s = p.frames[s-1].ovNext {
		if f := &p.frames[s-1]; page.PageID(f.tagPage.Load()) == id {
			return f
		}
	}
	return nil
}

// insertLocked maps id → f, which is tagged id already. Caller holds b's
// mutex; the seq bump makes any overlapping optimistic probe retry.
func (p *Pool) insertLocked(b bucketRef, id page.PageID, f *Frame) {
	b.seq.Add(1)
	sched.Yield(sched.BufBucketWrite)
	defer b.seq.Add(1)
	for i := 0; i < bucketSlots; i++ {
		if b.ids[i].Load() == 0 {
			b.slots[i].Store(f.slot)
			b.ids[i].Store(uint64(id))
			return
		}
	}
	f.ovNext, b.w.ov = b.w.ov, f.slot+1
	b.overflowN.Add(1)
}

// removeLocked unmaps id. Caller holds b's mutex. A slot it empties is
// refilled from the overflow, so a page is out of the lock-free probe's
// reach only while its bucket really holds more than bucketSlots; a pool
// that churns would otherwise keep every page that once arrived fifth there.
func (p *Pool) removeLocked(b bucketRef, id page.PageID) {
	b.seq.Add(1)
	sched.Yield(sched.BufBucketWrite)
	defer b.seq.Add(1)
	for i := 0; i < bucketSlots; i++ {
		if page.PageID(b.ids[i].Load()) == id {
			b.ids[i].Store(0)
			if s := b.w.ov; s != 0 {
				f := &p.frames[s-1]
				b.w.ov = f.ovNext
				b.overflowN.Add(-1)
				b.slots[i].Store(f.slot)
				b.ids[i].Store(f.tagPage.Load())
			}
			return
		}
	}
	for pp := &b.w.ov; *pp != 0; pp = &p.frames[*pp-1].ovNext {
		if f := &p.frames[*pp-1]; page.PageID(f.tagPage.Load()) == id {
			*pp = f.ovNext
			b.overflowN.Add(-1)
			return
		}
	}
}

// walkTable visits every mapping of the page table, one bucket mutex at
// a time, and reports whether any bucket had an op in flight. A sweep for
// invariant checks, not an access path: it bypasses the hit-path lock
// accounting.
func (p *Pool) walkTable(fn func(id page.PageID, f *Frame)) (inflight bool) {
	for i := range p.buckets {
		b := p.bucketAt(i)
		b.w.mu.Lock()
		for j := 0; j < bucketSlots; j++ {
			if id := page.PageID(b.ids[j].Load()); id.Valid() {
				fn(id, &p.frames[b.slots[j].Load()])
			}
		}
		for s := b.w.ov; s != 0; s = p.frames[s-1].ovNext {
			fn(page.PageID(p.frames[s-1].tagPage.Load()), &p.frames[s-1])
		}
		inflight = inflight || b.w.ops != nil
		b.w.mu.Unlock()
	}
	return inflight
}

// loadOp marks a page as in flight between the table and the device: a
// miss reading it in, or an eviction writing its dirty bytes out of the
// claimed frame. While the op is chained on the page's bucket the page has
// no table entry, and anybody who needs the page — another miss or an
// Invalidate — waits for the op to finish and then looks again
// (awaitOp). At most one op exists per page: a load registers only when the
// page is unmapped and op-free, and an eviction claims only an unpinned
// mapped frame, which a loader keeps pinned until after its op is gone.
//
// Registering costs no allocation: the op belongs to the owning Session
// (nextOp), the bucket chains it intrusively, and the channel exists only
// once a first waiter made it, under the bucket mutex.
type loadOp struct {
	id    page.PageID
	evict bool          // an eviction write-back, not a load
	next  *loadOp       // bucket chain; guarded by the bucket mutex
	done  chan struct{} // made by the first waiter; guarded by the bucket mutex
	err   error         // written before done closes; read only after it
}

// nextOp readies the session-owned op in *slot for page id. A session has
// at most one load and one eviction in flight, so each slot's op is reused
// for the session's whole life — unless somebody waited on its last use: a
// waiter may still be reading err off it, so that op is left to the waiter
// and the collector.
func nextOp(slot **loadOp, id page.PageID, evict bool) *loadOp {
	op := *slot
	if op == nil || op.done != nil {
		op = new(loadOp)
		*slot = op
	}
	op.id, op.evict, op.err = id, evict, nil
	return op
}

// opLocked returns the in-flight op for id, if any. Caller holds mu.
func (b *bucketW) opLocked(id page.PageID) *loadOp {
	for op := b.ops; op != nil; op = op.next {
		if op.id == id {
			return op
		}
	}
	return nil
}

// addOpLocked chains op on the bucket. Caller holds mu.
func (b *bucketW) addOpLocked(op *loadOp) {
	op.next = b.ops
	b.ops = op
}

// endOpLocked unchains op with its outcome and returns the channel its
// waiters sleep on, for wake once the caller has released mu. Caller
// holds mu.
func (b *bucketW) endOpLocked(op *loadOp, err error) chan struct{} {
	op.err = err
	for pp := &b.ops; *pp != nil; pp = &(*pp).next {
		if *pp == op {
			*pp = op.next
			op.next = nil
			break
		}
	}
	return op.done
}

// wake releases the waiters of an op endOpLocked ended, if it had any.
func wake(done chan struct{}) {
	if done != nil {
		close(done)
	}
}

// awaitOp waits for another goroutine's in-flight op on one of b's pages
// and returns its outcome; the caller then looks the page up again. Called
// with b.mu held, which it releases.
func (p *Pool) awaitOp(b bucketRef, op *loadOp) error {
	if op.done == nil {
		op.done = make(chan struct{})
	}
	done, evict := op.done, op.evict
	b.w.mu.Unlock()
	if evict {
		p.evictWaits.Add(1)
	} else {
		p.loadWaits.Add(1)
	}
	<-done
	return op.err
}

// finishOp unregisters op and releases whoever waited on it.
func (p *Pool) finishOp(b bucketRef, op *loadOp, err error) {
	p.lockBucket(b)
	done := b.w.endOpLocked(op, err)
	b.w.mu.Unlock()
	wake(done)
}

// bucketFor returns the table partition of a page id.
func (p *Pool) bucketFor(id page.PageID) bucketRef {
	return p.bucketAt(bucketIndex(id, len(p.buckets)))
}

// bucketAt pairs the two sides of bucket i.
func (p *Pool) bucketAt(i int) bucketRef { return bucketRef{&p.buckets[i], &p.bucketWs[i]} }

// frameAt resolves a table lookup's answer: the frame in slot, nil for -1.
func (p *Pool) frameAt(slot int) *Frame {
	if slot < 0 {
		return nil
	}
	return &p.frames[slot]
}

// lockBucket takes a bucket's writer mutex, counting the acquisition so
// the E17 "zero locks on the hit path" claim is measurable, not asserted.
func (p *Pool) lockBucket(b bucketRef) {
	b.w.mu.Lock()
	p.hp.bucketLocks.Add(1)
}

// wbLock returns the write-back serialization stripe for a page id.
func (p *Pool) wbLock(id page.PageID) *sync.Mutex {
	return &p.wbLocks[mix64(uint64(id))%wbStripes]
}

// validTags is installed as the wrapper's commit-time validator: it
// keeps, in order and in place, the queued accesses whose frame still holds
// the same generation of the same page — the paper's comparison with the
// tag in the buffer header (Section IV-B). It runs under the policy lock,
// so it probes no table: the tag names the slot, and since every ownership
// transition of a frame bumps its generation a matching header is proof
// enough; a slot beyond the frames is simply not valid.
func (p *Pool) validTags(batch []core.Entry) []core.Entry {
	live, frames := batch[:0], p.frames
	for _, e := range batch {
		if uint64(e.Tag.Slot) >= uint64(len(frames)) {
			continue
		}
		if t, ok := frames[e.Tag.Slot].TagSnapshot(); ok && t.Page == e.ID && t.Matches(e.Tag) {
			live = append(live, e)
		}
	}
	return live
}

// hitLookup is the Get-path table probe: optimistic, with bounded retries
// of a torn read, then the mutex — at once when the page may be in the
// overflow chain, which no retry would reach. fast reports that the answer
// came from a zero-lock stable probe.
func (p *Pool) hitLookup(b bucketRef, id page.PageID) (f *Frame, fast bool) {
	if !lockedLookup() {
		for attempt := 0; ; attempt++ {
			slot, pr := b.lookupOptimistic(id)
			if pr == probeStable {
				return p.frameAt(slot), true
			}
			if pr == probeOverflow || attempt >= maxOptimisticRetries {
				break
			}
			p.hp.retries.Add(1)
			sched.Yield(sched.BufHitProbe)
		}
		p.hp.fallbacks.Add(1)
	}
	p.lockBucket(b)
	f = p.lookupLocked(b, id)
	b.w.mu.Unlock()
	return f, false
}

// get serves one page access for session ps. On a resident read it performs no mutex
// acquisition and writes no shared cacheline except the pin CAS: seqlock
// probe → tryPin → done, with the pin CAS itself revalidating the tag
// generation (DESIGN.md §12). Writable accesses serialize on the frame's
// wmu and drain readers before returning.
func (p *Pool) get(ps *Session, id page.PageID, writable bool) (*PageRef, error) {
	b := p.bucketFor(id)
	// Span stamping is gated on the request being head-sampled (or wire-
	// adopted): an untraced hit pays exactly this one branch — no clock
	// read, no scratch write — which is what keeps tracing inside the ≤3%
	// hit-path budget (DESIGN.md §14). Slow-phase arming happens on the
	// miss path (load), never here.
	tracing := ps.trace.Sampled()
	var t0 int64
	spins, recycled := 0, 0
	for {
		if tracing {
			t0 = ps.trace.Now()
		}
		f, fast := p.hitLookup(b, id)
		if tracing {
			ps.trace.Span(reqtrace.PhaseBucketProbe, t0, ps.trace.Now()-t0, flagArg(fast), uint64(id))
		}
		if f == nil {
			ref, retry, err := p.load(ps, id, writable)
			if err != nil {
				return nil, err
			}
			if !retry {
				return ref, nil
			}
			recycled = 0
			continue
		}
		// Writers queue on wmu WITHOUT holding a pin: a pinned waiter would
		// deadlock the current holder's reader drain. Only after the mutex
		// is ours do we pin and re-validate that the frame still caches id.
		if !writable {
			sched.Yield(sched.BufHitPin)
		}
		if tracing {
			t0 = ps.trace.Now()
		}
		if writable {
			f.wmu.Lock()
			p.hp.frameLocks.Add(1)
		}
		tag, st := f.tryPin(id)
		if st == pinOK {
			if writable {
				f.lockContent()
			}
			if tracing {
				ps.trace.Span(reqtrace.PhasePin, t0, ps.trace.Now()-t0, flagArg(writable), uint64(id))
			}
			ps.stageHit(fast && !writable)
			ps.sub.Hit(id, tag)
			return newPageRef(f, id, tag, writable), nil
		}
		if writable {
			f.wmu.Unlock()
		}
		if st == pinBusy {
			// A writer holds the frame exclusively; wait it out.
			backoff(spins)
			spins++
		} else {
			// Frame recycled between lookup and pin; retry the lookup.
			recycled = yieldIfStillRecycled(recycled)
		}
	}
}

// yieldIfStillRecycled paces a lookup loop that keeps finding its page
// mapped to a frame somebody has claimed but not yet unmapped. One such
// sighting is the ordinary lookup→pin race and retries at once; from the
// second in a row the claimant is evidently not running — preempted inside
// its claim-to-unmap window, or sharing our processor at GOMAXPROCS=1 — so
// the loop gives it the processor instead of spinning out a time slice.
// seen is how many consecutive sightings came before this one.
func yieldIfStillRecycled(seen int) int {
	if seen > 0 {
		backoff(seen - 1)
	}
	return seen + 1
}

// load handles a miss: it single-flights concurrent requests for the same
// page, obtains a frame (free or evicted), reads the page, and installs the
// frame in the table. retry is true when the caller lost the race and
// should restart its lookup.
func (p *Pool) load(ps *Session, id page.PageID, writable bool) (ref *PageRef, retry bool, err error) {
	b := p.bucketFor(id)
	p.lockBucket(b)
	if p.lookupLocked(b, id) != nil {
		// Installed while we were acquiring the lock.
		b.w.mu.Unlock()
		return nil, true, nil
	}
	if other := b.w.opLocked(id); other != nil {
		// The page is in flight — another backend is loading it, or an
		// eviction is still writing its dirty bytes out: wait, then retry.
		if err := p.awaitOp(b, other); err != nil {
			return nil, false, err
		}
		return nil, true, nil
	}
	op := nextOp(&ps.load, id, false)
	b.w.addOpLocked(op)
	b.w.mu.Unlock()

	// Fold this session's staged hits before counting the miss, so the
	// pool counters never show a miss "ahead of" hits that actually
	// preceded it.
	ps.foldHits()
	p.misses.Add(1)
	// Admission control: a read-only pool sheds every miss, before any
	// frame is claimed or device I/O issued. Followers waiting on the op
	// receive the same ErrOverloaded, which is correct — they were asking
	// for the same uncached page.
	if err := p.admitMiss(id); err != nil {
		p.finishOp(b, op, err)
		return nil, false, err
	}
	f, err := p.acquireFrame(ps, id)
	if err != nil {
		p.finishOp(b, op, err)
		return nil, false, err
	}
	// The frame is exclusively ours — claimed: recycling bit up, gen
	// bumped, one claim pin — so the fill below can use plain stores; the
	// page is in the policy already, at its slot, where the claim guards it.
	// The newest copy wins: a quarantined page — dirty, its write-back not
	// yet confirmed durable — takes precedence over the device, and stays
	// dirty so it is written back again later.
	adopted := false
	if q := p.quarantineTake(id); q != nil {
		f.data = *q
		adopted = true
	} else {
		// Device reads are slow phases: they lazily arm the trace, so
		// every miss that touches the device is a tail candidate even
		// when head sampling skipped it.
		t0 := ps.trace.Now()
		rerr := p.device.ReadPage(id, &f.data)
		ps.trace.Slow(reqtrace.PhaseDeviceRead, t0, ps.trace.Now()-t0, flagArg(rerr != nil), uint64(id))
		if rerr != nil {
			p.wrapper.LockedSlots(func(pol replacer.SlotPolicy) { pol.RemoveSlot(f.slot, id) })
			p.freeFrame(f)
			p.finishOp(b, op, rerr)
			return nil, false, rerr
		}
	}
	f.tagPage.Store(uint64(id))
	if writable {
		// Take the writer mutex while the frame is still exclusively ours
		// and install with the wlock bit pre-set: no reader can have
		// pinned yet, so there is no drain wait — and no deadlock against
		// a competing writer that finds the frame the instant it is
		// published.
		f.wmu.Lock()
		p.hp.frameLocks.Add(1)
	}
	tag := f.install(adopted, writable)
	assertNotParked(p, id)

	// Publish in one bucket hold: the page is mapped in the instant its op
	// is unchained, so whoever held the mutex meanwhile saw one or the other.
	sched.Yield(sched.BufLoadInstall)
	p.lockBucket(b)
	p.insertLocked(b, id, f)
	done := b.w.endOpLocked(op, nil)
	b.w.mu.Unlock()
	wake(done)
	return newPageRef(f, id, tag, writable), false, nil
}

// acquireFrame produces an empty, once-claimed frame for page id and files
// the page in the policy at its slot, in the one policy-lock hold of a miss
// (Figure 4 of the paper), which commits any batched hits first: a frame off
// the free list or, the list empty, the first in the policy's order that
// claimVictim takes. When none can be claimed the policy step alone is
// repeated, letting the pinning goroutines run in between (short pins are
// released in microseconds, but a tight loop can spend its attempts before
// the scheduler lets an unpin happen), up to twice the pool size. A saturated
// quarantine then means dirty victims were refused for durability's sake, not
// that all are pinned.
func (p *Pool) acquireFrame(ps *Session, id page.PageID) (*Frame, error) {
	f, slot := p.popFree()
	victim, admitted := ps.sub.MissSlot(id, slot, p.claim)
	for attempt := 0; !admitted; attempt++ {
		switch {
		case attempt > 2*len(p.frames) && p.quarantineFull():
			return nil, ErrQuarantineFull
		case attempt > 2*len(p.frames):
			return nil, ErrNoUnpinnedBuffers
		case attempt > 0:
			runtime.Gosched()
		}
		f, slot = p.popFree()
		victim, admitted = p.wrapper.Seat(id, slot, p.claim)
	}
	if f != nil {
		return f, nil
	}
	return p.evictClaimed(ps, victim), nil
}

// popFree takes a frame off the free list and claims it, naming its slot; it
// returns (nil, core.NoSlot) when the list is empty.
func (p *Pool) popFree() (*Frame, uint32) {
	p.freeMu.Lock()
	defer p.freeMu.Unlock()
	n := len(p.freeList)
	if n == 0 {
		return nil, core.NoSlot
	}
	f := p.freeList[n-1]
	p.freeList = p.freeList[:n-1]
	f.claimFree()
	return f, f.slot
}

// claimVictim is the claim a policy's eviction walk offers each candidate to
// (replacer.SlotPolicy.EvictSlot), under the policy lock: one CAS, tryClaim,
// takes the frame exclusively unless it is pinned or writer-held — or dirty
// while the quarantine is full, as a failed write would have nowhere to
// park. The policy names the frame, so there is no table probe: a page the
// policy holds is in its frame, or loading into it (claimed: refused), as no
// claim of a mapped frame leaves its page in the policy. The generation bump
// fails the pin CAS of any reader that probed the table first (DESIGN.md §12).
func (p *Pool) claimVictim(v replacer.Victim) bool {
	f := &p.frames[v.Slot]
	for {
		s := f.state.Load()
		if s&(framePinMask|frameRecycling|frameWLock) != 0 {
			return false
		}
		if s&frameDirty != 0 && p.quarantineFull() {
			p.quarRefusals.Add(1)
			return false
		}
		if f.tryClaim(s) {
			return true
		}
		// Lost a race (a reader pinned, a writer dirtied…); re-evaluate.
	}
}

// evictClaimed unmaps the victim whose frame claimVictim took, writes its
// bytes back if they are dirty, and returns the frame — claimed (recycling,
// one claim pin, generation bumped) with its old tag still in tagPage,
// harmless since the recycling bit makes every tryPin refuse it until
// install or toFree overwrites the identity.
//
// Dirty victims are evicted losslessly and without a copy: in the bucket
// critical section that unmaps the page an in-flight op is registered for
// it, and the bytes are then written to the device out of the claimed frame
// itself, under the page's write-back stripe. A miss or an Invalidate that
// arrives meanwhile waits on the op (awaitOp) and then
// finds the page on the device — or, when the write failed, in the
// quarantine, where the bytes are copied only then, to be drained later by
// the background writer, FlushDirty or Close. So an acknowledged write is
// at every instant mapped, covered by an op, durable or parked.
func (p *Pool) evictClaimed(ps *Session, v replacer.Victim) *Frame {
	f := &p.frames[v.Slot]
	dirty := f.state.Load()&frameDirty != 0

	sched.Yield(sched.BufReclaimClaim)
	b := p.bucketFor(v.ID)
	p.lockBucket(b)
	p.removeLocked(b, v.ID)
	if !dirty {
		b.w.mu.Unlock()
		return f
	}
	op := nextOp(&ps.evict, v.ID, true)
	b.w.addOpLocked(op)
	b.w.mu.Unlock()

	sched.Yield(sched.BufEvictWrite)
	p.writeVictim(&ps.trace, v.ID, f)
	p.finishOp(b, op, nil)
	return f
}

// writeVictim makes the dirty bytes of a claimed, unmapped frame durable,
// or parks them. The claim made the frame exclusively ours and the op
// registered by evictClaimed keeps everybody else off the page, so
// writeFrame can hand the device the frame itself.
func (p *Pool) writeVictim(a *reqtrace.Active, id page.PageID, f *Frame) {
	if p.writeFrame(a, id, f) == nil {
		p.evictWritebacks.Add(1)
		return
	}
	// Park the bytes: the page is safe and the failure observable via
	// Stats. The frame itself is still reusable.
	p.writeBackFailures.Add(1)
	t0 := a.Now()
	c := f.data
	p.quarantinePut(id, &c, a)
	a.Slow(reqtrace.PhaseQuarantine, t0, a.Now()-t0, 1, uint64(id))
}

// writeFrame writes f's bytes of page id to the device under the page's
// write-back stripe, straight out of the frame: the caller keeps the bytes
// stable for as long as WritePage runs — which is all the storage.Device
// contract lets it do — an eviction by its claim and op, a flush by its
// pin. Nothing recovers a device's panic, so the stripe needs no defer. The
// write is a slow phase: it lazily arms the trace, because an
// evicting request is paying for another page's write-back — exactly the
// latency a decomposition must surface.
func (p *Pool) writeFrame(a *reqtrace.Active, id page.PageID, f *Frame) error {
	l := p.wbLock(id)
	l.Lock()
	t0 := a.Now()
	err := p.device.WritePage(&f.data)
	l.Unlock()
	a.Slow(reqtrace.PhaseDeviceWrite, t0, a.Now()-t0, flagArg(err != nil), uint64(id))
	return err
}

// writeQuarantined makes the quarantined copy of id durable and resolves
// its entry. All quarantine-backed writes go through here: the per-page
// stripe lock is held across the device call so write-backs of the same
// page are serialized — an old copy's slow write finishes before a newer
// copy's write starts, and can therefore never land after (and silently
// revert) it. Under the stripe lock the entry is re-validated first: a
// copy that was adopted by a miss (and perhaps parked again, as a new
// entry) or purged by Invalidate is skipped rather than written, returning
// (false, nil). On write failure the entry stays quarantined.
//
// self is the caller's trace ID (0 for the background writer and flush
// sweeps): when the resolved entry was parked by a DIFFERENT traced
// request, its park-to-durable interval is emitted as a cross-thread span
// on the parking request's trace — "evicted by request R, made durable
// N ns later by another thread".
func (p *Pool) writeQuarantined(id page.PageID, copy *page.Page, self uint64) (wrote bool, err error) {
	l := p.wbLock(id)
	l.Lock()
	defer l.Unlock()
	p.quarMu.Lock()
	cur := p.quarantine[id]
	p.quarMu.Unlock()
	if cur != copy {
		return false, nil
	}
	if err := p.device.WritePage(copy); err != nil {
		return false, err
	}
	tc := p.quarantineResolve(id, copy)
	if p.tracer != nil && tc.trace != 0 && tc.trace != self {
		p.tracer.Emit(reqtrace.Span{
			Trace: tc.trace, Phase: reqtrace.PhaseDeviceWrite,
			Flags: reqtrace.FlagCross | reqtrace.FlagTail,
			Start: tc.at, Dur: p.tracer.Now() - tc.at, Arg2: uint64(id),
		})
	}
	p.events.Record(obs.EvQuarantineFlush, uint64(id), 0)
	return true, nil
}

// quarantinePut parks a page copy under its id. At most one entry per page
// can exist, and a page is mapped or parked, never both: only a page with
// no frame is parked — by an eviction whose write failed, behind its op (a
// torture build checks this at every install).
// a, when non-nil and traced, attributes the park so a later write-back by
// another thread can be stitched onto the parking request's trace.
func (p *Pool) quarantinePut(id page.PageID, copy *page.Page, a *reqtrace.Active) {
	tid := a.ID()
	p.quarMu.Lock()
	p.quarantine[id] = copy
	if tid != 0 {
		p.quarTrace[id] = quarCtx{trace: tid, at: a.Now()}
	} else {
		delete(p.quarTrace, id)
	}
	n := len(p.quarantine)
	p.quarUnlock()
	p.events.Record(obs.EvQuarantinePark, uint64(id), uint64(n))
}

// quarUnlock releases quarMu after a change to the quarantine, publishing
// its new size first.
func (p *Pool) quarUnlock() {
	p.quarN.Store(int32(len(p.quarantine)))
	p.quarMu.Unlock()
}

// quarantineTake removes and returns the quarantined copy of id, if any.
// Used by the miss path to adopt the newest acknowledged version.
//
// An empty quarantine — the case on every miss of a healthy pool — is
// answered from quarN, without the lock. That is safe because nobody who
// must find a page's parked copy gets here ahead of the park: an eviction
// parks before finishOp unchains its op under the page's bucket mutex, where
// load waits the op out. That is a happens-before edge from the store of the
// count to this load: zero means no copy the caller is due.
func (p *Pool) quarantineTake(id page.PageID) *page.Page {
	if p.quarN.Load() == 0 {
		return nil
	}
	p.quarMu.Lock()
	q := p.quarantine[id]
	if q != nil {
		delete(p.quarantine, id)
		delete(p.quarTrace, id)
	}
	p.quarUnlock()
	return q
}

// quarantineResolve removes the entry for id if it is still the exact copy
// the caller parked; a concurrent miss may already have adopted it (and
// will write the same bytes back again later, which is merely redundant).
// It returns the parker's trace context (zero when untraced or when the
// entry was already gone) so the resolving write can be attributed.
func (p *Pool) quarantineResolve(id page.PageID, copy *page.Page) quarCtx {
	var tc quarCtx
	p.quarMu.Lock()
	if p.quarantine[id] == copy {
		delete(p.quarantine, id)
		tc = p.quarTrace[id]
		delete(p.quarTrace, id)
	}
	p.quarUnlock()
	return tc
}

// quarantineIDs snapshots the ids currently parked in the quarantine.
func (p *Pool) quarantineIDs() []page.PageID {
	p.quarMu.Lock()
	ids := make([]page.PageID, 0, len(p.quarantine))
	for id := range p.quarantine {
		ids = append(ids, id)
	}
	p.quarMu.Unlock()
	return ids
}

func (p *Pool) quarantineFull() bool { return p.quarantineLen() >= p.quarCap }

// quarantineLen reports the number of pages currently parked in the dirty
// quarantine.
func (p *Pool) quarantineLen() int { return int(p.quarN.Load()) }

// drainQuarantine retries the write-back of every quarantined page,
// returning the number made durable, the number that failed again, and
// the join of per-page failures. Entries stay mapped while their write is
// in flight so a concurrent miss can still adopt them; a snapshot entry
// that was adopted or superseded before its write starts is skipped by
// writeQuarantined (counted neither written nor failed), and per-page
// serialization there guarantees a stale snapshot write can never land
// after a newer successful write of the same page.
func (p *Pool) drainQuarantine() (written, failed int, err error) {
	p.quarMu.Lock()
	snap := make(map[page.PageID]*page.Page, len(p.quarantine))
	for id, copy := range p.quarantine {
		snap[id] = copy
	}
	p.quarMu.Unlock()
	var errs []error
	for id, copy := range snap {
		wrote, werr := p.writeQuarantined(id, copy, 0)
		if werr != nil {
			p.writeBackFailures.Add(1)
			failed++
			errs = append(errs, fmt.Errorf("quarantined page %v: %w", id, werr))
			continue
		}
		if wrote {
			written++
		}
	}
	return written, failed, errors.Join(errs...)
}

// freeFrame returns a claimed frame to the free list, once its page is out
// of the policy: after a failed load has removed it, or once its page has
// been unmapped for good.
func (p *Pool) freeFrame(f *Frame) {
	f.toFree()
	p.freeMu.Lock()
	p.freeList = append(p.freeList, f)
	p.freeMu.Unlock()
}

// purgeQuarantine discards any quarantined copy of id. Taking the
// write-back stripe first waits out an in-flight write of the page and
// makes later snapshot writes skip (their entry is gone), so discarded
// bytes cannot be resurrected onto the device after the purge.
func (p *Pool) purgeQuarantine(id page.PageID) {
	l := p.wbLock(id)
	l.Lock()
	p.quarMu.Lock()
	delete(p.quarantine, id)
	delete(p.quarTrace, id)
	p.quarUnlock()
	l.Unlock()
}

// Invalidate drops page id from the pool (e.g. its table was truncated),
// discarding dirty contents — including any quarantined copy from an
// earlier failed write-back, which must not be drained back to the device
// later. A page in flight is waited out first: a load so that the page it
// installs is dropped too, and an eviction write-back so that the write has
// landed (or parked its bytes, which the purge then discards) before
// Invalidate returns — nothing of the page reaches the device afterwards.
// It fails with ErrNoUnpinnedBuffers if the page is pinned.
func (p *Pool) Invalidate(id page.PageID) error {
	f, err := p.claimMapped(id)
	if err != nil {
		return err
	}
	p.purgeQuarantine(id)
	if f != nil {
		p.freeFrame(f)
	}
	return nil
}

// claimMapped takes page id's frame out of the pool for an Invalidate and
// returns it claimed; f is nil when the page has no frame. An op in flight
// on the page is waited out — its outcome is its owner's business — and the
// page looked up again, as it is when its frame was claimed by someone else
// and is about to be unmapped. A pinned or writer-held frame fails with
// ErrNoUnpinnedBuffers. The frame is claimed and its page taken out of the
// policy in one hold, as in an eviction, and before the page leaves the
// table: a miss on id starts only once the table entry is gone, and its
// admission must not find it resident.
func (p *Pool) claimMapped(id page.PageID) (*Frame, error) {
	b := p.bucketFor(id)
	for recycled := 0; ; {
		p.lockBucket(b)
		if op := b.w.opLocked(id); op != nil {
			_ = p.awaitOp(b, op)
			continue
		}
		f := p.lookupLocked(b, id)
		b.w.mu.Unlock()
		if f == nil {
			return nil, nil
		}
		s := f.state.Load()
		if s&frameRecycling != 0 || page.PageID(f.tagPage.Load()) != id {
			recycled = yieldIfStillRecycled(recycled)
			continue
		}
		recycled = 0
		if s&(framePinMask|frameWLock) != 0 {
			return nil, ErrNoUnpinnedBuffers
		}
		claimed := false
		p.wrapper.LockedSlots(func(pol replacer.SlotPolicy) {
			if claimed = f.tryClaim(s); claimed {
				pol.RemoveSlot(f.slot, id)
			}
		})
		if claimed {
			p.lockBucket(b)
			p.removeLocked(b, id)
			b.w.mu.Unlock()
			return f, nil
		}
	}
}

// flushFrame writes one dirty frame back to the device from the frame
// itself, as PostgreSQL's FlushBuffer does and as an eviction does
// (writeFrame). A pin, CASed onto a dirty frame with no pins and no writer,
// keeps the bytes stable for the write: eviction and Invalidate pass a
// pinned frame over, and a GetWrite waits in its reader drain until the
// pin drops. The dirty bit clears only after the write has succeeded, under
// the pin, so the page never looks clean before it is durable; a failed
// write leaves the frame dirty for a later round. A frame with readers is
// skipped. It reports whether it wrote the page.
func (p *Pool) flushFrame(f *Frame) (bool, error) {
	var id page.PageID
	for {
		s := f.state.Load()
		if s&(frameRecycling|frameWLock|framePinMask) != 0 || s&frameDirty == 0 {
			return false, nil
		}
		id = page.PageID(f.tagPage.Load())
		if f.state.CompareAndSwap(s, s+1) {
			// The CAS doubles as validation: any recycle since the loads
			// above would have bumped the generation and failed it.
			break
		}
	}
	defer f.unpin()
	sched.Yield(sched.BufFlushWrite)
	if err := p.writeFrame(nil, id, f); err != nil {
		p.writeBackFailures.Add(1)
		return false, fmt.Errorf("page %v: %w", id, err)
	}
	for {
		s := f.state.Load()
		if f.state.CompareAndSwap(s, s&^uint64(frameDirty)) {
			return true, nil
		}
	}
}

// FlushDirty writes every dirty, unpinned page back to the device — and
// retries every quarantined page — returning the number made durable.
// Pinned dirty pages are skipped. Each page is written from its frame
// under a pin, so for the length of that one device write a GetWrite of
// the page waits and an Invalidate of it fails with ErrNoUnpinnedBuffers;
// readers and other pages are unaffected. A write failure does not abort
// the sweep: the page stays dirty (or quarantined), the remaining pages are
// still flushed, and the failures are returned joined so the caller sees
// every page that is not yet durable.
func (p *Pool) FlushDirty() (int, error) {
	var errs []error
	qn, _, qerr := p.drainQuarantine()
	n := qn
	if qerr != nil {
		errs = append(errs, qerr)
	}
	for i := range p.frames {
		wrote, err := p.flushFrame(&p.frames[i])
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if wrote {
			n++
		}
	}
	return n, errors.Join(errs...)
}

// dirtyCount reports the number of dirty resident pages right now; the
// figure is advisory under concurrency.
func (p *Pool) dirtyCount() int {
	n := 0
	for i := range p.frames {
		s := p.frames[i].state.Load()
		if s&frameDirty != 0 && s&frameRecycling == 0 {
			n++
		}
	}
	return n
}

// PinnedFrames reports the number of frames currently holding at least one
// pin, transition claim pins included; used by tests and diagnostics (at a
// true quiescent point — no outstanding PageRefs, no in-flight operations —
// it must be zero).
func (p *Pool) PinnedFrames() int {
	n := 0
	for i := range p.frames {
		if p.frames[i].state.Load()&framePinMask != 0 {
			n++
		}
	}
	return n
}

// CheckInvariants verifies the pool's structural invariants: pin-count
// sanity, frame/hash-table consistency, free-list integrity, a page
// resident or quarantined but never both, and policy/table agreement. It is
// O(frames + buckets) and takes each lock briefly.
//
// The contract is quiescence: callers must ensure no pool operations are in
// flight (the torture harness calls it after workers join and again after
// Close). Called concurrently it cannot
// corrupt anything, but it may report perfectly legal in-flight
// transitions — a claimed frame between table removal and the free list —
// as violations.
func (p *Pool) CheckInvariants() error {
	// Snapshot the table: page → frame, taking each bucket lock once.
	mapped := make(map[page.PageID]*Frame, len(p.frames))
	inflight := p.walkTable(func(id page.PageID, f *Frame) { mapped[id] = f })
	if inflight {
		return errors.New("buffer: load or eviction write in flight during invariant check (caller not quiescent)")
	}
	for i := range p.buckets {
		if p.buckets[i].seq.Load()&1 != 0 {
			return errors.New("buffer: bucket seqlock left odd (writer died mid-update)")
		}
	}
	byFrame := make(map[*Frame]page.PageID, len(mapped))
	for id, f := range mapped {
		if prev, dup := byFrame[f]; dup {
			return fmt.Errorf("buffer: frame mapped twice, as %v and %v", prev, id)
		}
		byFrame[f] = id
		s := f.state.Load()
		if s&frameRecycling != 0 {
			return fmt.Errorf("buffer: page %v mapped to a recycling frame", id)
		}
		if got := page.PageID(f.tagPage.Load()); got != id {
			return fmt.Errorf("buffer: table entry %v points at frame caching %v", id, got)
		}
	}
	// Free-list integrity: recycling, unpinned, untagged, unmapped, no
	// duplicates.
	p.freeMu.Lock()
	free := append([]*Frame(nil), p.freeList...)
	p.freeMu.Unlock()
	onFree := make(map[*Frame]bool, len(free))
	for _, f := range free {
		if onFree[f] {
			return errors.New("buffer: frame on free list twice")
		}
		onFree[f] = true
		if id, ok := byFrame[f]; ok {
			return fmt.Errorf("buffer: frame on free list while mapped as %v", id)
		}
		s := f.state.Load()
		if id := page.PageID(f.tagPage.Load()); id.Valid() {
			return fmt.Errorf("buffer: free frame still tagged %v", id)
		}
		if s&frameRecycling == 0 {
			return errors.New("buffer: free frame not in recycling state")
		}
		if pins := s & framePinMask; pins != 0 {
			return fmt.Errorf("buffer: free frame has %d pins", pins)
		}
	}
	// Every frame is accounted for exactly once: mapped or free.
	if len(mapped)+len(free) != len(p.frames) {
		return fmt.Errorf("buffer: %d mapped + %d free != %d frames (frame leaked or in flight)",
			len(mapped), len(free), len(p.frames))
	}
	// Quarantine: disjoint from the resident set and within its soft
	// capacity bound.
	quar := p.quarantineIDs()
	for _, id := range quar {
		if _, resident := mapped[id]; resident {
			return fmt.Errorf("buffer: page %v both resident and quarantined", id)
		}
	}
	if len(quar) > p.quarCap+len(p.frames) {
		return fmt.Errorf("buffer: quarantine %d far beyond cap %d", len(quar), p.quarCap)
	}
	// Policy agreement: a page enters the policy in the hold that claims its
	// frame and leaves it only with that frame, so at quiescence — no load in
	// flight — the policy tracks exactly the mapped pages, each in its
	// frame's slot. A resident without a table entry would be unservable, and
	// a mapped page the policy does not track unevictable.
	var perr error
	p.wrapper.LockedSlots(func(pol replacer.SlotPolicy) {
		for id, f := range mapped {
			if !pol.ContainsSlot(f.slot, id) {
				perr = fmt.Errorf("buffer: page %v is mapped to frame %d, where the policy does not track it", id, f.slot)
				return
			}
		}
		if n := pol.Len(); n != len(mapped) {
			perr = fmt.Errorf("buffer: policy tracks %d residents, %d pages are mapped", n, len(mapped))
		}
	})
	if perr != nil {
		return perr
	}
	return p.wrapper.CheckInvariants()
}

// flagArg renders a yes/no as a span or event argument.
func flagArg(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// mix64 is the 64-bit finalizer of MurmurHash3: a full-avalanche mix, so
// buckets (off its low bits) and write-back stripes spread any id pattern.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}
