package replacer

// CLOCK-Pro (Jiang, Chen & Zhang, USENIX 2005) is the clock-based
// approximation of LIRS. All page metadata — hot pages, resident cold
// pages, and non-resident cold pages still in their test period — sits on
// one circular list swept by three hands:
//
//   - handCold points at the oldest resident cold page and produces
//     victims;
//   - handHot points at the oldest hot page and demotes hot pages whose
//     reference bits are clear;
//   - handTest terminates test periods to bound the non-resident metadata
//     at the cache size.
//
// A cold page re-referenced during its test period is promoted to hot; the
// cold-page allocation target adapts up on non-resident (ghost) hits and
// down when test periods expire unused.
//
// The BP-Wrapper paper cites CLOCK-Pro as a clock approximation that gives
// up history fidelity for lock avoidance; this implementation exists so the
// hit-ratio experiments can compare it against real LIRS.
type ClockPro struct {
	slab
	coldTarget int // adaptive allocation for resident cold pages, in [1, capacity]

	// The hands are ring positions, nilIdx while the ring is empty. A
	// page's node says what it is: hot (fHot), resident cold, or
	// non-resident cold (fGhost); in its test period (fTest); referenced
	// since the hand last passed (fRef).
	handHot  uint32
	handCold uint32
	handTest uint32
	nHot     int
	nColdRes int
	nNR      int // non-resident pages in their test period
}

// NewClockPro returns a CLOCK-Pro policy holding at most capacity resident
// pages, with the cold allocation target initialised to capacity/2.
func NewClockPro(capacity int) *ClockPro {
	p := &ClockPro{coldTarget: max(1, capacity/2), handHot: nilIdx, handCold: nilIdx, handTest: nilIdx}
	p.init(p, "clockpro", capacity, capacity+1, 0, 0) // capacity+1 non-resident pages between an eviction and handTest's answer to it
	return p
}

// Len implements Policy.
func (p *ClockPro) Len() int { return p.nHot + p.nColdRes }

// Counts reports (hot, resident cold, non-resident) entry counts; used by
// invariant tests.
func (p *ClockPro) Counts() (hot, coldRes, nonResident int) {
	return p.nHot, p.nColdRes, p.nNR
}

// HitSlot sets the page's reference bit, the clock-family hit operation.
func (p *ClockPro) HitSlot(slot uint32, id PageID) {
	if nd := p.resident(slot, id); nd != nil {
		nd.flags |= fRef
	}
}

// HitSlots implements SlotBatcher.
func (p *ClockPro) HitSlots(batch []Access) {
	for _, a := range batch {
		p.HitSlot(a.Tag.Slot, a.ID)
	}
}

// insertHead links node i into the ring at the "list head" position (just
// behind handHot, as in the paper). If the ring is empty all hands start
// at i.
func (p *ClockPro) insertHead(i uint32) {
	nd := &p.nodes[i]
	if p.handHot == nilIdx {
		nd.prev, nd.next = i, i
		p.handHot, p.handCold, p.handTest = i, i, i
		return
	}
	at := p.nodes[p.handHot].prev
	nd.prev, nd.next = at, p.handHot
	p.nodes[at].next = i
	p.nodes[p.handHot].prev = i
}

// retarget moves every hand that points at node from to node to.
func (p *ClockPro) retarget(from, to uint32) {
	for _, hand := range []*uint32{&p.handHot, &p.handCold, &p.handTest} {
		if *hand == from {
			*hand = to
		}
	}
}

// unlink removes node i from the ring, advancing any hand that points at
// it.
func (p *ClockPro) unlink(i uint32) {
	nd := &p.nodes[i]
	if nd.next == i {
		p.handHot, p.handCold, p.handTest = nilIdx, nilIdx, nilIdx
	} else {
		p.retarget(i, nd.next)
		p.nodes[nd.prev].next = nd.next
		p.nodes[nd.next].prev = nd.prev
	}
	nd.prev, nd.next = nilIdx, nilIdx
}

// hotOverTarget reports whether the hot set exceeds what the cold
// allocation leaves it.
func (p *ClockPro) hotOverTarget() bool {
	return p.nHot > p.capacity-min(p.coldTarget, p.capacity-1)
}

// AdmitSlot makes id resident after a miss. A non-resident (test-period)
// hit promotes the page to hot and grows the cold allocation; a plain miss
// admits the page as a cold page in its test period.
func (p *ClockPro) AdmitSlot(slot uint32, id PageID) (victim Victim, evicted bool) {
	g, present := p.ghost(id)
	if present {
		// Ghost hit during test period: the page has a small reuse
		// distance. Grow the cold allocation and re-admit as hot.
		p.coldTarget = min(p.coldTarget+1, p.capacity)
		p.unlink(g)
		p.dropGhost(g)
		p.nNR--
	}
	if p.Len() == p.capacity {
		victim, evicted = p.evict(nil)
	}
	nd := p.place(slot, id)
	p.insertHead(slot)
	if present {
		nd.flags |= fHot
		p.nHot++
		for p.hotOverTarget() {
			p.runHandHot()
		}
	} else {
		nd.flags |= fTest
		p.nColdRes++
		for p.nNR > p.capacity {
			p.runHandTest()
		}
	}
	return victim, evicted
}

// evict sweeps handCold until it evicts one resident cold page that claim
// takes, returning it. Referenced cold pages in their test period are
// promoted to hot on the way; referenced cold pages out of test get a
// renewed test period at the head. Once handCold has passed every cold page
// refusing it, with nothing changed, the victim is the first hot page from
// handHot claim takes, which leaves with no test period.
func (p *ClockPro) evict(claim func(Victim) bool) (Victim, bool) {
	if p.nColdRes == 0 {
		// All resident pages are hot; demote one to produce a cold victim
		// candidate.
		p.runHandHot()
	}
	for refused := 0; refused < p.nColdRes; {
		i := p.handCold
		nd := &p.nodes[i]
		p.handCold = nd.next
		if nd.has(fGhost | fHot) {
			continue
		}
		if !nd.has(fRef) && !p.offer(claim, i) {
			refused++
			continue
		}
		if nd.has(fRef) {
			refused = 0
			nd.flags &^= fRef
			if nd.has(fTest) {
				// Re-accessed within its test period: promote to hot.
				nd.flags = nd.flags&^fTest | fHot
				p.nColdRes--
				p.nHot++
				for p.hotOverTarget() {
					p.runHandHot()
				}
				if p.nColdRes == 0 {
					p.runHandHot()
				}
			} else {
				// Re-accessed but out of test: give it a fresh test period
				// at the head.
				p.unlink(i)
				nd.flags |= fTest
				p.insertHead(i)
			}
			continue
		}
		// Unreferenced resident cold page, claimed: evict it.
		p.nColdRes--
		if !nd.has(fTest) {
			p.unlink(i)
			return p.vacate(i), true
		}
		// Keep it where it is, as a non-resident page, for the rest of its
		// test period.
		v, g := p.toGhost(i)
		p.retarget(i, g)
		p.nNR++
		for p.nNR > p.capacity {
			p.runHandTest()
		}
		return v, true
	}
	for i, left := p.handHot, p.nHot; left > 0; i = p.nodes[i].next {
		if !p.nodes[i].has(fHot) {
			continue
		}
		if left--; p.offer(claim, i) {
			p.unlink(i)
			p.nHot--
			return p.vacate(i), true
		}
	}
	return Victim{}, false
}

// runHandHot demotes one hot page to cold-resident status, clearing
// reference bits on the way (second chance).
func (p *ClockPro) runHandHot() {
	if p.nHot == 0 {
		return
	}
	for {
		nd := &p.nodes[p.handHot]
		p.handHot = nd.next
		if !nd.has(fHot) {
			continue
		}
		if nd.has(fRef) {
			nd.flags &^= fRef
			continue
		}
		nd.flags &^= fHot | fTest
		p.nHot--
		p.nColdRes++
		return
	}
}

// runHandTest terminates one test period: a passed non-resident page is
// removed from the metadata; a resident cold page merely leaves its test
// period, shrinking the cold allocation.
func (p *ClockPro) runHandTest() {
	if p.nNR == 0 {
		return
	}
	for {
		i := p.handTest
		nd := &p.nodes[i]
		p.handTest = nd.next
		if nd.has(fHot) {
			continue
		}
		if nd.has(fGhost) {
			p.unlink(i)
			p.dropGhost(i)
			p.nNR--
			return
		}
		if nd.has(fTest) {
			// A resident cold page whose test period expires unused:
			// shrink the cold allocation.
			nd.flags &^= fTest
			p.coldTarget = max(1, p.coldTarget-1)
		}
	}
}

// RemoveSlot deletes a page from the resident set or the test-period
// history.
func (p *ClockPro) RemoveSlot(i uint32, id PageID) {
	nd := p.holder(i, id)
	if nd == nil {
		return
	}
	p.unlink(i)
	switch {
	case nd.has(fGhost):
		p.nNR--
		p.dropGhost(i)
		return
	case nd.has(fHot):
		p.nHot--
	default:
		p.nColdRes--
	}
	p.vacate(i)
}
