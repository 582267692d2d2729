package replacer

// LIRS is the Low Inter-reference Recency Set replacement algorithm (Jiang
// & Zhang, SIGMETRICS 2002) — one of the advanced algorithms the BP-Wrapper
// paper reports wrapping in place of 2Q with indistinguishable scalability
// results (Section IV-A).
//
// Resident pages are partitioned into a large LIR set (pages with small
// inter-reference recency, never evicted directly) and a small HIR set
// (capacity lhirs, default max(1, capacity/100)) from which victims are
// taken in FIFO order (queue Q). The recency stack S orders recently seen
// pages — LIR, resident HIR, and a bounded number of non-resident HIR
// ghosts — and drives promotion/demotion between the sets.
//
// A page's node carries its role — LIR (fHot), resident HIR, or non-resident
// HIR (fGhost) — and its links on S. A page can be on S and on Q at once, so
// every node has a twin, qoff further up the slab, that carries its links on
// Q while it is resident and on the ghost-age FIFO (which bounds the
// history) once it is not. A hit on a LIR page, the common case, touches
// the one node.
type LIRS struct {
	slab
	llirs     int    // target LIR set size
	lhirs     int    // target resident-HIR set size (= capacity - llirs)
	ghostCap  int    // max non-resident HIR entries retained
	qoff      uint32 // node i's twin is node i+qoff
	s         *list  // recency stack; front = most recent
	q         *list  // resident HIR queue, of twins; front = oldest (victim end)
	ghostAge  *list  // ghosts in creation order, of twins; front = oldest
	nLIR      int
	nResident int
}

// NewLIRS returns a LIRS policy with the paper-recommended 1% HIR
// allocation and a ghost history bounded at 2× capacity.
func NewLIRS(capacity int) *LIRS {
	return NewLIRSTuned(capacity, max(1, capacity/100), 2*capacity)
}

// NewLIRSTuned returns a LIRS policy with an explicit resident-HIR
// allocation (lhirs, in pages) and ghost-history bound.
func NewLIRSTuned(capacity, lhirs, ghostCap int) *LIRS {
	if capacity > 0 && (lhirs < 1 || lhirs >= capacity) {
		// lhirs == capacity would leave no LIR pages at all; LIRS
		// degenerates. Require at least one page on each side.
		if capacity == 1 {
			lhirs = 1
		} else {
			panic("replacer: lirs: lhirs out of range [1, capacity)")
		}
	}
	if ghostCap < 0 {
		panic("replacer: lirs: ghostCap must be >= 0")
	}
	p := &LIRS{llirs: capacity - lhirs, lhirs: lhirs, ghostCap: ghostCap}
	entries := capacity + 1 + ghostCap + 1 // the ghost FIFO holds ghostCap+1 between a push and its trim
	p.init(p, "lirs", capacity, ghostCap+1, entries, 3)
	p.qoff = uint32(entries)
	p.s, p.q, p.ghostAge = p.newList("S", fLive), p.newList("Q", 0), p.newList("ghost FIFO", 0)
	p.s.mask, p.q.mask, p.ghostAge.mask = fLive, 0xff, 0xff // S holds pages in every role, the others twins
	return p
}

// Len implements Policy.
func (p *LIRS) Len() int { return p.nResident }

// LIRCount returns the current number of LIR pages; used by invariant tests.
func (p *LIRS) LIRCount() int { return p.nLIR }

// GhostCount returns the current number of non-resident history entries.
func (p *LIRS) GhostCount() int { return p.ghostAge.len() }

// onS reports whether entry i is on the recency stack.
func (p *LIRS) onS(i uint32) bool { return p.nodes[i].next != nilIdx }

// HitSlot records an access to a resident page.
func (p *LIRS) HitSlot(slot uint32, id PageID) {
	nd := p.resident(slot, id)
	switch {
	case nd == nil:
	case nd.has(fHot):
		wasBottom := p.s.back() == slot
		p.s.moveToFront(slot)
		if wasBottom {
			p.prune()
		}
	case p.onS(slot):
		// Resident HIR with stack presence: its new inter-reference
		// recency is small, so it becomes LIR; the stack-bottom LIR
		// page is demoted to keep the LIR set size on target.
		p.s.moveToFront(slot)
		nd.flags |= fHot
		p.q.remove(slot + p.qoff)
		p.nLIR++
		if p.nLIR > p.llirs {
			p.demoteBottom()
		}
		p.prune()
	default:
		// Resident HIR not on the stack: status unchanged; refresh its
		// recency on S and its position in Q.
		p.s.pushFront(slot)
		p.q.moveToBack(slot + p.qoff)
	}
}

// HitSlots implements SlotBatcher.
func (p *LIRS) HitSlots(batch []Access) {
	for _, a := range batch {
		p.HitSlot(a.Tag.Slot, a.ID)
	}
}

// demoteBottom turns the LIR page at the stack bottom into a resident HIR
// page at the tail of Q. The pruning invariant guarantees the bottom entry
// is LIR whenever nLIR > 0.
func (p *LIRS) demoteBottom() {
	bottom := p.s.back()
	if bottom != nilIdx && !p.nodes[bottom].has(fHot) {
		// Should be unreachable given the pruning invariant; tolerate by
		// pruning and retrying once.
		p.prune()
		bottom = p.s.back()
	}
	if bottom == nilIdx || !p.nodes[bottom].has(fHot) {
		return
	}
	p.s.remove(bottom)
	p.nodes[bottom].flags &^= fHot
	p.q.pushBack(bottom + p.qoff)
	p.nLIR--
}

// prune removes non-LIR entries from the stack bottom until the bottom is a
// LIR page (or the stack is empty). Resident HIR pages merely leave the
// stack; ghosts are dropped entirely.
func (p *LIRS) prune() {
	for {
		bottom := p.s.back()
		if bottom == nilIdx || p.nodes[bottom].has(fHot) {
			return
		}
		p.s.remove(bottom)
		if p.nodes[bottom].has(fGhost) {
			p.ghostAge.remove(bottom + p.qoff)
			p.dropGhost(bottom)
		}
	}
}

// forget drops ghost g from the stack, if it is on it, and from the history.
// It must already be off the ghost-age FIFO.
func (p *LIRS) forget(g uint32) {
	if p.onS(g) {
		p.s.remove(g)
	}
	p.dropGhost(g)
}

// AdmitSlot makes id resident after a miss, evicting the oldest resident
// HIR page if the buffer is full.
func (p *LIRS) AdmitSlot(slot uint32, id PageID) (victim Victim, evicted bool) {
	g, present := p.ghost(id)
	if present {
		// Ghost hit: drop the history entry now, so that the eviction
		// below (ghost trimming, pruning) cannot free the entry we are
		// about to promote.
		p.ghostAge.remove(g + p.qoff)
		p.forget(g)
	}
	if p.nResident == p.capacity {
		victim, evicted = p.evict(nil)
	}
	nd := p.place(slot, id)
	p.s.pushFront(slot)
	switch {
	case p.nLIR < p.llirs && !present:
		// Warm-up (or post-Remove refill): fill the LIR set first.
		nd.flags |= fHot
		p.nLIR++
	case present:
		// Ghost hit: small reuse distance, so the page enters as LIR and
		// the stack-bottom LIR page is demoted.
		nd.flags |= fHot
		p.nLIR++
		if p.nLIR > p.llirs {
			p.demoteBottom()
		}
		p.prune()
	default:
		// Cold miss with a full LIR set: enter as resident HIR.
		p.q.pushBack(slot + p.qoff)
	}
	p.nResident++
	return victim, evicted
}

// evict follows LIRS's rule: the victim is the oldest resident HIR page
// claim takes, from the front of Q. If there is none (Q can be empty after
// explicit Removes), it is the LIR page nearest the stack bottom that claim
// takes, demoted and evicted at once.
func (p *LIRS) evict(claim func(Victim) bool) (Victim, bool) {
	for t := p.nodes[p.q.root].next; t != p.q.root; t = p.nodes[t].next {
		if i := t - p.qoff; p.offer(claim, i) {
			p.q.remove(t)
			return p.evictHIR(i), true
		}
	}
	if p.q.len() == 0 {
		p.prune() // as demoteBottom would
	}
	for i := p.nodes[p.s.root].prev; i != p.s.root; i = p.nodes[i].prev {
		if p.nodes[i].has(fHot) && p.offer(claim, i) {
			p.s.remove(i)
			p.nLIR--
			p.nResident--
			return p.vacate(i), true
		}
	}
	return Victim{}, false
}

// evictHIR evicts the resident HIR page i, which is off Q.
func (p *LIRS) evictHIR(i uint32) Victim {
	p.nResident--
	if !p.onS(i) || p.ghostCap == 0 {
		if p.onS(i) {
			p.s.remove(i)
		}
		return p.vacate(i)
	}
	// Still on the stack: keep it there as a ghost so a prompt re-reference
	// is recognised as low-IRR.
	v, g := p.toGhost(i)
	p.ghostAge.pushBack(g + p.qoff)
	if p.ghostAge.len() > p.ghostCap {
		p.forget(p.ghostAge.popFront() - p.qoff)
	}
	return v
}

// RemoveSlot deletes a page from the resident set, or drops its history
// entry.
func (p *LIRS) RemoveSlot(i uint32, id PageID) {
	nd := p.holder(i, id)
	if nd == nil {
		return
	}
	if nd.has(fGhost) {
		p.ghostAge.remove(i + p.qoff)
		p.forget(i)
		return
	}
	if p.onS(i) {
		p.s.remove(i)
	}
	lir := nd.has(fHot)
	if !lir {
		p.q.remove(i + p.qoff)
	}
	p.nResident--
	p.vacate(i)
	if lir {
		p.nLIR--
		p.prune()
	}
}
