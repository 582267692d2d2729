package replacer

import "sync/atomic"

// clockNode is a ring element for CLOCK and GCLOCK, at the index of the
// frame slot its page occupies. The id and the reference state are atomic
// because the hit path reads the one and bumps the other without any lock,
// exactly like the usage-count update in PostgreSQL's buffer descriptor.
// The ring links are mutated only under the policy lock.
type clockNode struct {
	id         atomic.Uint64
	ref        atomic.Int32 // 0/1 for CLOCK; 0..maxCount for GCLOCK; clockFree on a free slot
	prev, next uint32
}

// clockFree is the reference state of a slot that holds no page: no hit
// can bump it, whatever id the slot last held.
const clockFree = -1

// Clock is the second-chance (CLOCK) approximation of LRU used by
// PostgreSQL since 8.1: resident pages form a circular list; a hit bumps
// the page's reference count with one atomic operation on the slot's node
// and takes no lock; the eviction hand sweeps the ring, clearing set bits
// and evicting the first page found with a clear bit.
//
// HitSlot, Hit and the prefetch walks are safe for concurrent use without
// external locking. All other methods require the policy lock.
type Clock struct {
	front
	nodes    []clockNode
	maxCount int32  // reference ceiling; 1 for plain CLOCK
	hand     uint32 // nilIdx when the ring is empty
	length   int
}

// NewClock returns a plain CLOCK policy (single reference bit) holding at
// most capacity pages.
func NewClock(capacity int) *Clock { return newClock("clock", capacity, 1) }

// NewGClock returns a generalized CLOCK policy whose per-page reference
// counter saturates at maxCount and is decremented by the sweeping hand,
// matching PostgreSQL's usage_count scheme (PostgreSQL uses maxCount 5).
func NewGClock(capacity int, maxCount int32) *Clock {
	if maxCount < 1 {
		panic("replacer: gclock: maxCount must be >= 1")
	}
	return newClock("gclock", capacity, maxCount)
}

func newClock(name string, capacity int, maxCount int32) *Clock {
	if capacity <= 0 {
		panic("replacer: " + name + ": capacity must be positive")
	}
	p := &Clock{nodes: make([]clockNode, capacity+1), maxCount: maxCount, hand: nilIdx}
	p.self, p.name, p.capacity, p.indexed, p.lockFree = p, name, capacity, capacity+1, true
	for i := range p.nodes {
		p.nodes[i].ref.Store(clockFree)
	}
	return p
}

// Len implements Policy.
func (p *Clock) Len() int { return p.length }

// HitIsLockFree reports that Hit requires no external lock.
func (p *Clock) HitIsLockFree() bool { return true }

// ContainsSlot implements SlotPolicy.
func (p *Clock) ContainsSlot(slot uint32, id PageID) bool {
	return int(slot) < len(p.nodes) && p.nodes[slot].ref.Load() != clockFree && p.nodes[slot].id.Load() == uint64(id)
}

// HitSlot saturates the reference counter of the page in slot. It takes no
// lock: this is the scalability property that made PostgreSQL adopt the
// clock sweep, and the yardstick the paper measures BP-Wrapper against. A
// hit that races the slot's reuse may land on the next tenant's counter —
// a stray second chance, not corruption.
func (p *Clock) HitSlot(slot uint32, id PageID) {
	if int(slot) >= len(p.nodes) {
		return
	}
	nd := &p.nodes[slot]
	if nd.id.Load() != uint64(id) {
		return
	}
	// Saturating increment; a CAS loop keeps the counter within
	// [0, maxCount] under concurrency.
	for {
		c := nd.ref.Load()
		if c < 0 || c >= p.maxCount || nd.ref.CompareAndSwap(c, c+1) {
			return
		}
	}
}

// HitSlots implements SlotBatcher, lock-free like HitSlot.
func (p *Clock) HitSlots(batch []Access) {
	for _, a := range batch {
		p.HitSlot(a.Tag.Slot, a.ID)
	}
}

// Hit implements Policy, lock-free: unlike front's it never scans, so a
// page admitted by slot and never filed is not found and the hit is lost —
// the caller that has slots hits by slot.
func (p *Clock) Hit(id PageID) {
	if ix := p.ix.Load(); ix != nil {
		if slot, ok := ix.lookup(id); ok {
			p.HitSlot(slot, id)
		}
	}
}

// AdmitSlot inserts a new page just behind the hand (so it receives a full
// sweep before being considered for eviction), evicting via the clock sweep
// if at capacity.
func (p *Clock) AdmitSlot(slot uint32, id PageID) (victim Victim, evicted bool) {
	if int(slot) >= len(p.nodes) {
		panic("replacer: " + p.name + ": Admit into a slot beyond the policy's capacity")
	}
	nd := &p.nodes[slot]
	if nd.ref.Load() != clockFree {
		panic("replacer: " + p.name + ": Admit into an occupied slot")
	}
	if p.length == p.capacity {
		victim, evicted = p.evict(nil)
	}
	if p.hand == nilIdx {
		nd.prev, nd.next = slot, slot
		p.hand = slot
	} else {
		// Insert immediately behind the hand: the hand will visit every
		// other page before reaching the newcomer.
		at := p.nodes[p.hand].prev
		nd.prev, nd.next = at, p.hand
		p.nodes[at].next = slot
		p.nodes[p.hand].prev = slot
	}
	nd.id.Store(uint64(id))
	nd.ref.Store(0)
	p.length++
	p.admitted(slot, id)
	return victim, evicted
}

// evict advances the hand, decrementing reference counters, until it finds
// a page with a zero counter that claim takes; that page is unlinked and
// returned. As PostgreSQL's sweep passes a pinned buffer, the hand passes a
// refused page, and tries, reset like its trycounter whenever a counter
// comes down, ends the walk after a lap of refusals.
func (p *Clock) evict(claim func(Victim) bool) (Victim, bool) {
	for tries := p.length; tries > 0; {
		nd := &p.nodes[p.hand]
		switch {
		case nd.ref.Load() > 0:
			nd.ref.Add(-1)
			tries = p.length
		case claim == nil || claim(Victim{ID: PageID(nd.id.Load()), Slot: p.hand}):
			return p.unlink(p.hand), true
		default:
			tries--
		}
		p.hand = nd.next
	}
	return Victim{}, false
}

// unlink removes the page in slot from the ring and frees the slot.
func (p *Clock) unlink(slot uint32) Victim {
	nd := &p.nodes[slot]
	if nd.next == slot {
		p.hand = nilIdx
	} else {
		p.nodes[nd.prev].next = nd.next
		p.nodes[nd.next].prev = nd.prev
		if p.hand == slot {
			p.hand = nd.next
		}
	}
	nd.ref.Store(clockFree)
	p.length--
	v := Victim{ID: PageID(nd.id.Load()), Slot: slot}
	p.vacated(slot, v.ID)
	return v
}

// RemoveSlot deletes a page from the resident set.
func (p *Clock) RemoveSlot(slot uint32, id PageID) {
	if p.ContainsSlot(slot, id) {
		p.unlink(slot)
	}
}

// eachResident implements slotted.
func (p *Clock) eachResident(fn func(slot uint32, id PageID)) {
	for i := range p.nodes {
		if nd := &p.nodes[i]; nd.ref.Load() != clockFree {
			fn(uint32(i), PageID(nd.id.Load()))
		}
	}
}

// PrefetchSlots implements SlotPrefetcher. All a clock hit touches is the
// slot's own reference count, and loading it atomically is walk enough: the
// compiler keeps an atomic load whose result nobody uses.
func (p *Clock) PrefetchSlots(slots []uint32) {
	for _, slot := range slots {
		if int(slot) < len(p.nodes) {
			p.nodes[slot].ref.Load()
		}
	}
}

// Prefetch implements Prefetcher for a caller that has ids.
func (p *Clock) Prefetch(ids []PageID) {
	ix := p.ix.Load()
	if ix == nil {
		return
	}
	for _, id := range ids {
		if slot, ok := ix.lookup(id); ok {
			p.nodes[slot].ref.Load()
		}
	}
}
