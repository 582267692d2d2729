package replacer

// TwoQ is the full version of the 2Q replacement algorithm (Johnson &
// Shasha, VLDB 1994), the advanced algorithm the BP-Wrapper paper plugs into
// PostgreSQL as its representative high-hit-ratio policy (pg2Q and all the
// pgBat/pgPre/pgBatPre systems).
//
// Resident pages live either on the A1in FIFO (seen once, recently) or on
// the Am LRU list (proven re-reference). Pages evicted from A1in leave a
// ghost entry on the A1out FIFO; a miss that finds its ghost on A1out is
// admitted directly into Am. Hits on A1in pages do not move them (that is
// the "full" 2Q's correlated-reference filter); hits on Am pages move them
// to the MRU end — the operation the paper's batching defers.
type TwoQ struct {
	slab
	kin  int // max length of A1in
	kout int // max length of A1out (ghosts)

	a1in  *list // front = newest
	a1out *list // ghosts; front = newest
	am    *list // front = MRU
}

// NewTwoQ returns a 2Q policy with the paper-recommended tuning:
// Kin = capacity/4 and Kout = capacity/2 (each at least 1).
func NewTwoQ(capacity int) *TwoQ {
	return NewTwoQTuned(capacity, max(1, capacity/4), max(1, capacity/2))
}

// NewTwoQTuned returns a 2Q policy with explicit Kin (A1in capacity) and
// Kout (A1out ghost capacity) parameters.
func NewTwoQTuned(capacity, kin, kout int) *TwoQ {
	if capacity > 0 && (kin < 1 || kin > capacity) {
		panic("replacer: 2q: kin out of range [1, capacity]")
	}
	if kout < 1 {
		panic("replacer: 2q: kout must be >= 1")
	}
	p := &TwoQ{kin: kin, kout: kout}
	p.init(p, "2q", capacity, kout+1, 0, 3) // A1out holds kout+1 between a push and its trim
	p.a1in, p.am, p.a1out = p.newList("a1in", fLive), p.newList("am", fLive|fHot), p.newList("a1out", fLive|fGhost)
	return p
}

// Len implements Policy.
func (p *TwoQ) Len() int { return p.a1in.len() + p.am.len() }

// HitSlot records an access to a resident page: Am pages move to the MRU
// end; A1in pages deliberately stay put (2Q's correlated-reference filter).
func (p *TwoQ) HitSlot(slot uint32, id PageID) {
	if nd := p.resident(slot, id); nd != nil && nd.has(fHot) {
		p.am.moveToFront(slot)
	}
}

// HitSlots implements SlotBatcher.
func (p *TwoQ) HitSlots(batch []Access) {
	for _, a := range batch {
		p.HitSlot(a.Tag.Slot, a.ID)
	}
}

// AdmitSlot makes id resident after a miss. A ghost hit on A1out promotes
// the page straight into Am; otherwise it enters A1in. If the buffer is full
// a victim is reclaimed first, preferring A1in once it exceeds Kin.
func (p *TwoQ) AdmitSlot(slot uint32, id PageID) (victim Victim, evicted bool) {
	g, present := p.ghost(id)
	if present {
		// Ghost hit: drop the ghost now so that evict's A1out trimming
		// cannot free the very entry we are promoting.
		p.a1out.remove(g)
		p.dropGhost(g)
	}
	if p.Len() == p.capacity {
		victim, evicted = p.evict(nil)
	}
	nd := p.place(slot, id)
	if present {
		// The page has proven re-reference; admit straight into Am.
		nd.flags |= fHot
		p.am.pushFront(slot)
	} else {
		p.a1in.pushFront(slot)
	}
	return victim, evicted
}

// evict frees one resident slot following 2Q's rule: if A1in holds more
// than Kin pages (or Am is empty), evict A1in's oldest page and remember it
// on A1out; otherwise evict Am's LRU page with no ghost. Refused pages count
// towards Kin; the other queue is walked only when claim takes nothing from
// the one the rule picked.
func (p *TwoQ) evict(claim func(Victim) bool) (Victim, bool) {
	first, second := p.am, p.a1in
	if p.a1in.len() > 0 && (p.a1in.len() >= p.kin || p.am.len() == 0) {
		first, second = second, first
	}
	l, i := p.claimIn(claim, false, first, second)
	switch {
	case l == nil:
		return Victim{}, false
	case l == p.am:
		p.am.remove(i)
		return p.vacate(i), true
	}
	p.a1in.remove(i)
	v, g := p.toGhost(i)
	p.a1out.pushFront(g)
	if p.a1out.len() > p.kout {
		p.dropGhost(p.a1out.popBack())
	}
	return v, true
}

// RemoveSlot deletes a page from the resident set, or drops its ghost.
func (p *TwoQ) RemoveSlot(i uint32, id PageID) {
	nd := p.holder(i, id)
	switch {
	case nd == nil:
	case nd.has(fGhost):
		p.a1out.remove(i)
		p.dropGhost(i)
	case nd.has(fHot):
		p.am.remove(i)
		p.vacate(i)
	default:
		p.a1in.remove(i)
		p.vacate(i)
	}
}

// QueueLengths reports the current (A1in, A1out, Am) list lengths; used by
// invariant tests and diagnostics.
func (p *TwoQ) QueueLengths() (a1in, a1out, am int) {
	return p.a1in.len(), p.a1out.len(), p.am.len()
}
