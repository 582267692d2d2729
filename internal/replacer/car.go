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
type CAR struct {
	prefetchIndex[node, *node]
	capacity int
	p        int // adaptation target: preferred size of T1

	table map[PageID]*node
	t1    *list // clock ring; front = hand position
	t2    *list // clock ring; front = hand position
	b1    *list // ghosts of t1; front = MRU, back = LRU
	b2    *list // ghosts of t2; front = MRU, back = LRU
	spare spareNodes
}

var (
	_ Policy     = (*CAR)(nil)
	_ Prefetcher = (*CAR)(nil)
)

// NewCAR returns a CAR policy holding at most capacity resident pages.
func NewCAR(capacity int) *CAR {
	checkCap("car", capacity)
	return &CAR{
		prefetchIndex: newPrefetchIndex[node](capacity),

		capacity: capacity,
		table:    make(map[PageID]*node, 2*capacity),
		t1:       newList(),
		t2:       newList(),
		b1:       newList(),
		b2:       newList(),
	}
}

// Name implements Policy.
func (p *CAR) Name() string { return "car" }

// Cap implements Policy.
func (p *CAR) Cap() int { return p.capacity }

// Len implements Policy.
func (p *CAR) Len() int { return p.t1.len() + p.t2.len() }

// Target returns the current adaptation target; exposed for tests.
func (p *CAR) Target() int { return p.p }

// ListLengths reports (|T1|, |T2|, |B1|, |B2|); used by invariant tests.
func (p *CAR) ListLengths() (t1, t2, b1, b2 int) {
	return p.t1.len(), p.t2.len(), p.b1.len(), p.b2.len()
}

// Contains reports whether id is resident.
func (p *CAR) Contains(id PageID) bool {
	nd, ok := p.table[id]
	return ok && !nd.ghost
}

// Hit sets the page's reference bit — the only work CAR does on a hit,
// which is what makes it a clock-family algorithm.
func (p *CAR) Hit(id PageID) {
	nd, ok := p.table[id]
	if !ok || nd.ghost {
		return
	}
	nd.ref = true
}

// Admit makes id resident after a miss, following CAR's published
// pseudo-code: replace when full, maintain the directory bounds, and adapt
// p on ghost hits.
func (p *CAR) Admit(id PageID) (victim PageID, evicted bool) {
	nd, present := p.table[id]
	if present && !nd.ghost {
		mustAbsent("car", true)
	}
	if p.Len() == p.capacity {
		victim = p.replace()
		evicted = true
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
			old := p.b1.popBack()
			delete(p.table, old.id)
			p.spare.put(old)
		}
		for p.t1.len()+p.t2.len()+p.b1.len()+p.b2.len() >= 2*p.capacity && p.b2.len() > 0 {
			old := p.b2.popBack()
			delete(p.table, old.id)
			p.spare.put(old)
		}
	}
	switch {
	case !present:
		nd = p.spare.get(id)
		p.table[id] = nd
		p.t1.pushBack(nd) // tail of the T1 ring
	case !nd.hot: // ghost hit in B1
		delta := 1
		if p.b1.len() > 0 && p.b2.len() > p.b1.len() {
			delta = p.b2.len() / p.b1.len()
		}
		p.p = min(p.capacity, p.p+delta)
		p.b1.remove(nd)
		nd.ghost = false
		nd.hot = true
		nd.ref = false
		p.t2.pushBack(nd)
	default: // ghost hit in B2
		delta := 1
		if p.b2.len() > 0 && p.b1.len() > p.b2.len() {
			delta = p.b1.len() / p.b2.len()
		}
		p.p = max(0, p.p-delta)
		p.b2.remove(nd)
		nd.ghost = false
		nd.ref = false
		p.t2.pushBack(nd)
	}
	p.note(id, nd)
	return victim, evicted
}

// Evict removes and returns the page the CAR sweep selects.
func (p *CAR) Evict() (PageID, bool) {
	if p.Len() == 0 {
		return 0, false
	}
	return p.replace(), true
}

// replace runs the CAR clock sweep until a page with a clear reference bit
// is found, demoting referenced T1 pages to T2 and recycling referenced T2
// pages to the T2 tail.
func (p *CAR) replace() PageID {
	for {
		fromT1 := p.t1.len() >= max(1, p.p)
		if p.t1.len() == 0 {
			fromT1 = false
		} else if p.t2.len() == 0 {
			fromT1 = true
		}
		if fromT1 {
			nd := p.t1.popFront()
			if !nd.ref {
				nd.ghost = true
				p.b1.pushFront(nd)
				p.forget(nd.id)
				return nd.id
			}
			nd.ref = false
			nd.hot = true
			p.t2.pushBack(nd)
			continue
		}
		nd := p.t2.popFront()
		if !nd.ref {
			nd.ghost = true
			nd.hot = true
			p.b2.pushFront(nd)
			p.forget(nd.id)
			return nd.id
		}
		nd.ref = false
		p.t2.pushBack(nd)
	}
}

// Remove deletes a page from the resident set or the ghost directory.
func (p *CAR) Remove(id PageID) {
	nd, ok := p.table[id]
	if !ok {
		return
	}
	switch {
	case nd.ghost && nd.hot:
		p.b2.remove(nd)
	case nd.ghost:
		p.b1.remove(nd)
	case nd.hot:
		p.t2.remove(nd)
		p.forget(id)
	default:
		p.t1.remove(nd)
		p.forget(id)
	}
	delete(p.table, id)
	p.spare.put(nd)
}
