package replacer

// LRU is the classic least-recently-used replacement algorithm: resident
// pages form a recency list; a hit moves the page to the MRU end; eviction
// takes the LRU end. This is the algorithm whose clock approximation
// (CLOCK) stock PostgreSQL adopted for scalability, and the canonical
// example used throughout the BP-Wrapper paper.
type LRU struct {
	slab
	lst *list // front = MRU, back = LRU
}

// NewLRU returns an LRU policy holding at most capacity pages.
func NewLRU(capacity int) *LRU {
	p := &LRU{}
	p.initLRU(p, "lru", capacity)
	return p
}

func (p *LRU) initLRU(self slotted, name string, capacity int) {
	p.init(self, name, capacity, 0, 0, 1)
	p.lst = p.newList("list", fLive)
}

// Len implements Policy.
func (p *LRU) Len() int { return p.lst.len() }

// HitSlot moves the page to the MRU position.
func (p *LRU) HitSlot(slot uint32, id PageID) {
	if p.resident(slot, id) != nil {
		p.lst.moveToFront(slot)
	}
}

// HitSlots implements SlotBatcher.
func (p *LRU) HitSlots(batch []Access) {
	for _, a := range batch {
		p.HitSlot(a.Tag.Slot, a.ID)
	}
}

// AdmitSlot inserts a new page at the MRU position, evicting the LRU page
// if the policy is at capacity.
func (p *LRU) AdmitSlot(slot uint32, id PageID) (victim Victim, evicted bool) {
	if p.Len() == p.capacity {
		victim, evicted = p.evict(nil)
	}
	p.place(slot, id)
	p.lst.pushFront(slot)
	return victim, evicted
}

// evict removes and returns the page nearest the LRU position that claim
// takes.
func (p *LRU) evict(claim func(Victim) bool) (Victim, bool) {
	if l, i := p.claimIn(claim, false, p.lst); l != nil {
		l.remove(i)
		return p.vacate(i), true
	}
	return Victim{}, false
}

// RemoveSlot deletes a page from the resident set.
func (p *LRU) RemoveSlot(slot uint32, id PageID) {
	if p.resident(slot, id) != nil {
		p.lst.remove(slot)
		p.vacate(slot)
	}
}
