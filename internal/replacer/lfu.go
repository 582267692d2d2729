package replacer

// LFU evicts the resident page with the smallest access frequency, breaking
// ties by least-recent arrival among pages of equal frequency. All pages
// sit on one list, highest frequency first and, within a frequency, newest
// first, so the victim is always the back. Each run of equal frequency opens
// with a header node (fHeader, count = the frequency) that its pages name in
// tick, which makes every operation O(1): a hit moves the page to just
// behind the header of the next frequency, which if it exists is the header
// of the run in front.
type LFU struct {
	slab
	lst    *list
	length int
}

// NewLFU returns an LFU policy holding at most capacity pages.
func NewLFU(capacity int) *LFU {
	p := &LFU{}
	p.init(p, "lfu", capacity, capacity+1, 0, 1) // a header per page, and a hit opens a run before it closes one
	p.lst = p.newList("list", fLive)
	return p
}

// Len implements Policy.
func (p *LFU) Len() int { return p.length }

// join puts page i at the front of the run of frequency freq. before is the
// node the run's header sits behind, or would: the back of the run in front,
// a page if there is such a run and the list's sentinel otherwise.
func (p *LFU) join(i uint32, freq int32, before uint32) {
	h := uint32(p.nodes[before].tick)
	if before == p.lst.root || p.nodes[h].count != freq {
		h = p.alloc()
		p.nodes[h].count, p.nodes[h].flags = freq, fLive|fHeader
		p.lst.insertAfter(h, before)
	}
	nd := &p.nodes[i]
	nd.count, nd.tick = freq, int64(h)
	p.lst.insertAfter(i, h)
}

// leave takes page i off the list, and its run's header with it if the run
// is now empty.
func (p *LFU) leave(i uint32) {
	h := uint32(p.nodes[i].tick)
	p.lst.remove(i)
	p.closeIfEmpty(h)
}

func (p *LFU) closeIfEmpty(h uint32) {
	if n := p.nodes[h].next; n == p.lst.root || p.nodes[n].has(fHeader) {
		p.lst.remove(h)
		p.release(h)
	}
}

// HitSlot increments the page's frequency, moving it to the next run.
func (p *LFU) HitSlot(slot uint32, id PageID) {
	nd := p.resident(slot, id)
	if nd == nil {
		return
	}
	h := uint32(nd.tick)
	// The new run's header goes in before the old one can go out, so that
	// the place it belongs — in front of the old header — still exists.
	before := p.nodes[h].prev
	p.lst.remove(slot)
	p.join(slot, nd.count+1, before)
	p.closeIfEmpty(h)
}

// HitSlots implements SlotBatcher.
func (p *LFU) HitSlots(batch []Access) {
	for _, a := range batch {
		p.HitSlot(a.Tag.Slot, a.ID)
	}
}

// AdmitSlot inserts a new page with frequency 1, evicting the least-
// frequently-used page (oldest within the lowest frequency) if at capacity.
func (p *LFU) AdmitSlot(slot uint32, id PageID) (victim Victim, evicted bool) {
	if p.length == p.capacity {
		victim, evicted = p.evict(nil)
	}
	p.place(slot, id)
	p.join(slot, 1, p.nodes[p.lst.root].prev)
	p.length++
	return victim, evicted
}

// evict removes and returns the least-frequently-used page (oldest within
// the lowest frequency) that claim takes: the list from its back.
func (p *LFU) evict(claim func(Victim) bool) (Victim, bool) {
	if l, i := p.claimIn(claim, false, p.lst); l != nil {
		p.leave(i)
		p.length--
		return p.vacate(i), true
	}
	return Victim{}, false
}

// RemoveSlot deletes a page from the resident set.
func (p *LFU) RemoveSlot(slot uint32, id PageID) {
	if p.resident(slot, id) != nil {
		p.leave(slot)
		p.length--
		p.vacate(slot)
	}
}
