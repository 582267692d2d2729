package replacer

// ARC is the Adaptive Replacement Cache (Megiddo & Modha, FAST 2003).
// Resident pages are split between a recency list T1 (seen once) and a
// frequency list T2 (seen at least twice); ghost lists B1 and B2 remember
// recently evicted members of each, and the adaptation target p shifts
// capacity between the two sides in response to ghost hits.
//
// The BP-Wrapper paper cites ARC as a representative advanced algorithm
// whose clock approximation (CAR) loses history fidelity; both are included
// here so the hit-ratio experiments can quantify that trade-off.
type ARC struct {
	slab
	p int // adaptation target: preferred size of T1

	t1 *list // resident, seen once; front = MRU
	t2 *list // resident, seen twice+; front = MRU
	b1 *list // ghosts of t1; front = MRU
	b2 *list // ghosts of t2; front = MRU
}

// NewARC returns an ARC policy holding at most capacity resident pages.
func NewARC(capacity int) *ARC {
	p := &ARC{}
	p.initARC(p, "arc", capacity)
	return p
}

// initARC sizes the slab ARC and CAR share: the directory holds at most
// 2×capacity pages, so with nothing resident as many ghosts, and a ghost hit
// makes its new ghost before it drops the old one.
func (p *ARC) initARC(self slotted, name string, capacity int) {
	p.init(self, name, capacity, 2*capacity+1, 0, 4)
	p.t1, p.t2 = p.newList("t1", fLive), p.newList("t2", fLive|fHot)
	p.b1, p.b2 = p.newList("b1", fLive|fGhost), p.newList("b2", fLive|fGhost|fHot)
}

// Len implements Policy.
func (p *ARC) Len() int { return p.t1.len() + p.t2.len() }

// Target returns the current adaptation target (preferred |T1|); exposed
// for invariant tests.
func (p *ARC) Target() int { return p.p }

// ListLengths reports (|T1|, |T2|, |B1|, |B2|); used by invariant tests.
func (p *ARC) ListLengths() (t1, t2, b1, b2 int) {
	return p.t1.len(), p.t2.len(), p.b1.len(), p.b2.len()
}

// HitSlot moves a resident page to the MRU end of T2 (a second access
// proves frequency).
func (p *ARC) HitSlot(slot uint32, id PageID) {
	nd := p.resident(slot, id)
	switch {
	case nd == nil:
	case nd.has(fHot):
		p.t2.moveToFront(slot)
	default:
		p.t1.remove(slot)
		nd.flags |= fHot
		p.t2.pushFront(slot)
	}
}

// HitSlots implements SlotBatcher.
func (p *ARC) HitSlots(batch []Access) {
	for _, a := range batch {
		p.HitSlot(a.Tag.Slot, a.ID)
	}
}

// adapt moves the target towards the list whose ghost was hit, by the ratio
// of the other ghost list's length to that one's (at least 1).
func (p *ARC) adapt(hit, other *list, sign int) {
	delta := 1
	if hit.len() > 0 && other.len() > hit.len() {
		delta = other.len() / hit.len()
	}
	p.p = max(0, min(p.capacity, p.p+sign*delta))
}

// AdmitSlot makes id resident after a miss, adapting p on ghost hits and
// evicting per ARC's REPLACE rule when the cache is full.
func (p *ARC) AdmitSlot(slot uint32, id PageID) (victim Victim, evicted bool) {
	g, present := p.ghost(id)
	switch {
	case present && !p.nodes[g].has(fHot): // ghost hit in B1: favour recency
		p.adapt(p.b1, p.b2, +1)
		victim, evicted = p.replace(false)
		p.b1.remove(g)
	case present: // ghost hit in B2: favour frequency
		p.adapt(p.b2, p.b1, -1)
		victim, evicted = p.replace(true)
		p.b2.remove(g)
	default: // brand-new page
		l1 := p.t1.len() + p.b1.len()
		if l1 == p.capacity {
			if p.t1.len() < p.capacity {
				// Directory side L1 full but T1 has room for history churn:
				// drop B1's oldest ghost and make space by REPLACE.
				p.dropGhost(p.b1.popBack())
				victim, evicted = p.replace(false)
			} else {
				// B1 empty and T1 full: evict T1's LRU page outright.
				victim, evicted = p.vacate(p.t1.popBack()), true
			}
		} else if l1 < p.capacity {
			total := l1 + p.t2.len() + p.b2.len()
			if total >= p.capacity {
				if total == 2*p.capacity {
					p.dropGhost(p.b2.popBack())
				}
				if p.Len() == p.capacity {
					victim, evicted = p.replace(false)
				}
			}
		}
		p.place(slot, id)
		p.t1.pushFront(slot)
		return victim, evicted
	}
	p.dropGhost(g)
	p.place(slot, id).flags |= fHot
	p.t2.pushFront(slot)
	return victim, evicted
}

// evict removes and returns one resident page following ARC's REPLACE rule.
func (p *ARC) evict(claim func(Victim) bool) (Victim, bool) { return p.forceReplace(false, claim) }

// replace implements ARC's REPLACE(x, p) on the miss path: it evicts only
// when the cache is full.
func (p *ARC) replace(inB2 bool) (Victim, bool) {
	if p.Len() < p.capacity {
		return Victim{}, false
	}
	return p.forceReplace(inB2, nil)
}

// forceReplace evicts T1's LRU into B1 when T1 exceeds the target (or
// exactly meets it on a B2 ghost hit), otherwise T2's LRU into B2. Refused
// pages count towards |T1|; the other list is walked only when claim takes
// nothing from the one the target picked.
func (p *ARC) forceReplace(inB2 bool, claim func(Victim) bool) (Victim, bool) {
	first, second := p.t2, p.t1
	if p.t2.len() == 0 || p.t1.len() > 0 && (p.t1.len() > p.p || (inB2 && p.t1.len() == p.p)) {
		first, second = second, first
	}
	l, i := p.claimIn(claim, false, first, second)
	if l == nil {
		return Victim{}, false
	}
	l.remove(i)
	v, g := p.toGhost(i)
	if l == p.t1 {
		p.b1.pushFront(g)
	} else {
		p.b2.pushFront(g)
	}
	return v, true
}

// RemoveSlot deletes a page from the resident set or the ghost directory.
func (p *ARC) RemoveSlot(i uint32, id PageID) {
	nd := p.holder(i, id)
	if nd == nil {
		return
	}
	l := p.t1
	switch {
	case nd.has(fGhost) && nd.has(fHot):
		l = p.b2
	case nd.has(fGhost):
		l = p.b1
	case nd.has(fHot):
		l = p.t2
	}
	l.remove(i)
	if nd.has(fGhost) {
		p.dropGhost(i)
	} else {
		p.vacate(i)
	}
}
