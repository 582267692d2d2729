package replacer

// CAR is Clock with Adaptive Replacement (Bansal & Modha, FAST 2004): the
// clock-based approximation of ARC. T1 and T2 are clock rings with
// reference bits; B1 and B2 are LRU ghost lists; the target p adapts on
// ghost hits exactly as in ARC. The BP-Wrapper paper cites CAR as an
// example of trading hit-ratio fidelity for lock avoidance; the hit-ratio
// experiments quantify that trade against real ARC.
//
// This implementation keeps the published algorithm but, like the other
// advanced policies here, relies on external serialization (reference bits
// are plain fields); only the simpler Clock/GClock policies advertise
// lock-free hits.
type CAR struct{ ARC }

// NewCAR returns a CAR policy holding at most capacity resident pages.
func NewCAR(capacity int) *CAR {
	p := &CAR{}
	p.initARC(p, "car", capacity)
	return p
}

// HitSlot sets the page's reference bit — the only work CAR does on a hit,
// which is what makes it a clock-family algorithm.
func (p *CAR) HitSlot(slot uint32, id PageID) {
	if nd := p.resident(slot, id); nd != nil {
		nd.flags |= fRef
	}
}

// HitSlots implements SlotBatcher, over CAR's HitSlot rather than ARC's.
func (p *CAR) HitSlots(batch []Access) {
	for _, a := range batch {
		p.HitSlot(a.Tag.Slot, a.ID)
	}
}

// AdmitSlot makes id resident after a miss, following CAR's published
// pseudo-code: replace when full, maintain the directory bounds, and adapt
// p on ghost hits. T1 and T2 are clock rings here: front = hand position,
// back = tail.
func (p *CAR) AdmitSlot(slot uint32, id PageID) (victim Victim, evicted bool) {
	g, present := p.ghost(id)
	if p.Len() == p.capacity {
		victim, evicted = p.evict(nil)
	}
	if !present {
		// Trim the ghost directory on every fresh miss, not only when the
		// cache is full: external Evict/Remove (the pool's pinned-frame
		// retry path) can leave the cache below capacity with ghosts still
		// accumulating, so a trim gated on fullness lets the directory grow
		// past the paper's |T1|+|B1| <= c and total <= 2c bounds. Loops
		// rather than single discards so the bounds are restored even after
		// such churn.
		for p.t1.len()+p.b1.len() >= p.capacity && p.b1.len() > 0 {
			p.dropGhost(p.b1.popBack())
		}
		for p.t1.len()+p.t2.len()+p.b1.len()+p.b2.len() >= 2*p.capacity && p.b2.len() > 0 {
			p.dropGhost(p.b2.popBack())
		}
		p.place(slot, id)
		p.t1.pushBack(slot)
		return victim, evicted
	}
	if p.nodes[g].has(fHot) { // ghost hit in B2
		p.adapt(p.b2, p.b1, -1)
		p.b2.remove(g)
	} else { // ghost hit in B1
		p.adapt(p.b1, p.b2, +1)
		p.b1.remove(g)
	}
	p.dropGhost(g)
	p.place(slot, id).flags |= fHot
	p.t2.pushBack(slot)
	return victim, evicted
}

// evict runs the CAR clock sweep until a page with a clear reference bit
// that claim takes is found, demoting referenced T1 pages to T2 and
// recycling referenced T2 pages to the T2 tail. The hand passes a refused
// page (its ring's front moves to the back); a ring whose every page was
// refused since the sweep last changed anything yields to the other.
func (p *CAR) evict(claim func(Victim) bool) (Victim, bool) {
	skip1, skip2 := 0, 0 // refusals on each ring since the sweep last changed anything
	for {
		left1, left2 := p.t1.len()-skip1, p.t2.len()-skip2
		if left1+left2 == 0 {
			return Victim{}, false
		}
		ring, ghosts, skip := p.t2, p.b2, &skip2
		if left2 == 0 || left1 > 0 && p.t1.len() >= max(1, p.p) {
			ring, ghosts, skip = p.t1, p.b1, &skip1
		}
		i := ring.front()
		nd := &p.nodes[i]
		switch {
		case nd.has(fRef):
			nd.flags = nd.flags&^fRef | fHot
			ring.remove(i)
			p.t2.pushBack(i)
			skip1, skip2 = 0, 0
		case p.offer(claim, i):
			ring.remove(i)
			v, g := p.toGhost(i)
			ghosts.pushFront(g)
			return v, true
		default:
			ring.moveToBack(i)
			*skip++
		}
	}
}
