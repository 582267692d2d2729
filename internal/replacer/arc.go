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
	prefetchIndex[node, *node]
	capacity int
	p        int // adaptation target: preferred size of T1

	table map[PageID]*node
	t1    *list // resident, seen once; front = MRU
	t2    *list // resident, seen twice+; front = MRU
	b1    *list // ghosts of t1; front = MRU
	b2    *list // ghosts of t2; front = MRU
	spare spareNodes
}

var (
	_ Policy     = (*ARC)(nil)
	_ Prefetcher = (*ARC)(nil)
)

// NewARC returns an ARC policy holding at most capacity resident pages.
func NewARC(capacity int) *ARC {
	checkCap("arc", capacity)
	return &ARC{
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
func (p *ARC) Name() string { return "arc" }

// Cap implements Policy.
func (p *ARC) Cap() int { return p.capacity }

// Len implements Policy.
func (p *ARC) Len() int { return p.t1.len() + p.t2.len() }

// Target returns the current adaptation target (preferred |T1|); exposed
// for invariant tests.
func (p *ARC) Target() int { return p.p }

// ListLengths reports (|T1|, |T2|, |B1|, |B2|); used by invariant tests.
func (p *ARC) ListLengths() (t1, t2, b1, b2 int) {
	return p.t1.len(), p.t2.len(), p.b1.len(), p.b2.len()
}

// Contains reports whether id is resident (on T1 or T2).
func (p *ARC) Contains(id PageID) bool {
	nd, ok := p.table[id]
	return ok && !nd.ghost
}

// Hit moves a resident page to the MRU end of T2 (a second access proves
// frequency). Ghost and absent ids are ignored.
func (p *ARC) Hit(id PageID) {
	nd, ok := p.table[id]
	if !ok || nd.ghost {
		return
	}
	if nd.hot {
		p.t2.moveToFront(nd)
		return
	}
	p.t1.remove(nd)
	nd.hot = true
	p.t2.pushFront(nd)
}

// Admit makes id resident after a miss, adapting p on ghost hits and
// evicting per ARC's REPLACE rule when the cache is full.
func (p *ARC) Admit(id PageID) (victim PageID, evicted bool) {
	nd, present := p.table[id]
	if present && !nd.ghost {
		mustAbsent("arc", true)
	}
	switch {
	case present && !nd.hot: // ghost hit in B1: favour recency
		delta := 1
		if p.b1.len() > 0 && p.b2.len() > p.b1.len() {
			delta = p.b2.len() / p.b1.len()
		}
		p.p = min(p.capacity, p.p+delta)
		victim, evicted = p.replace(false)
		p.b1.remove(nd)
		nd.ghost = false
		nd.hot = true
		p.t2.pushFront(nd)
		p.note(id, nd)
	case present: // ghost hit in B2: favour frequency
		delta := 1
		if p.b2.len() > 0 && p.b1.len() > p.b2.len() {
			delta = p.b1.len() / p.b2.len()
		}
		p.p = max(0, p.p-delta)
		victim, evicted = p.replace(true)
		p.b2.remove(nd)
		nd.ghost = false
		p.t2.pushFront(nd)
		p.note(id, nd)
	default: // brand-new page
		l1 := p.t1.len() + p.b1.len()
		if l1 == p.capacity {
			if p.t1.len() < p.capacity {
				// Directory side L1 full but T1 has room for history churn:
				// drop B1's oldest ghost and make space by REPLACE.
				old := p.b1.popBack()
				delete(p.table, old.id)
				p.spare.put(old)
				victim, evicted = p.replace(false)
			} else {
				// B1 empty and T1 full: evict T1's LRU page outright.
				v := p.t1.popBack()
				delete(p.table, v.id)
				p.forget(v.id)
				victim, evicted = v.id, true
				p.spare.put(v)
			}
		} else if l1 < p.capacity {
			total := l1 + p.t2.len() + p.b2.len()
			if total >= p.capacity {
				if total == 2*p.capacity {
					old := p.b2.popBack()
					delete(p.table, old.id)
					p.spare.put(old)
				}
				if p.Len() == p.capacity {
					victim, evicted = p.replace(false)
				}
			}
		}
		nd = p.spare.get(id)
		p.table[id] = nd
		p.t1.pushFront(nd)
		p.note(id, nd)
	}
	return victim, evicted
}

// Evict removes and returns one resident page following ARC's REPLACE
// rule.
func (p *ARC) Evict() (PageID, bool) {
	if p.Len() == 0 {
		return 0, false
	}
	return p.forceReplace(false)
}

// replace implements ARC's REPLACE(x, p) on the miss path: it evicts only
// when the cache is full.
func (p *ARC) replace(inB2 bool) (PageID, bool) {
	if p.Len() < p.capacity {
		return 0, false
	}
	return p.forceReplace(inB2)
}

// forceReplace evicts T1's LRU into B1 when T1 exceeds the target (or
// exactly meets it on a B2 ghost hit), otherwise T2's LRU into B2.
func (p *ARC) forceReplace(inB2 bool) (PageID, bool) {
	fromT1 := p.t1.len() > 0 && (p.t1.len() > p.p || (inB2 && p.t1.len() == p.p))
	if !fromT1 && p.t2.len() == 0 {
		fromT1 = true
	}
	var nd *node
	if fromT1 {
		nd = p.t1.popBack()
		nd.ghost = true
		p.b1.pushFront(nd)
	} else {
		nd = p.t2.popBack()
		nd.ghost = true
		nd.hot = true
		p.b2.pushFront(nd)
	}
	p.forget(nd.id)
	return nd.id, true
}

// Remove deletes a page from the resident set or the ghost directory.
func (p *ARC) Remove(id PageID) {
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
