package replacer

import stdlist "container/list"

// lirsState enumerates the three roles a page can play in LIRS.
type lirsState uint8

const (
	lirsLIR      lirsState = iota // low inter-reference recency, resident
	lirsHIR                       // high inter-reference recency, resident
	lirsHIRGhost                  // high IRR, non-resident (history only)
)

// lirsEntry is the per-page metadata for LIRS. A page can be on the
// recency stack S and the resident-HIR queue Q simultaneously, so it
// carries an element pointer per list (plus one for the ghost-age FIFO that
// bounds history size).
type lirsEntry struct {
	id    PageID
	state lirsState
	sElem *stdlist.Element // position on S, nil if absent
	qElem *stdlist.Element // position on Q, nil if absent
	gElem *stdlist.Element // position on the ghost-age FIFO, nil if not ghost
}

// touch implements touchable for prefetching: it reads the fields a commit
// would access — the entry's state and its stack neighbours.
func (e *lirsEntry) touch() uint64 {
	s := uint64(e.id) ^ uint64(e.state)
	if se := e.sElem; se != nil {
		if p := se.Prev(); p != nil {
			s ^= uint64(p.Value.(*lirsEntry).id)
		}
		if n := se.Next(); n != nil {
			s ^= uint64(n.Value.(*lirsEntry).id)
		}
	}
	return s
}

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
type LIRS struct {
	prefetchIndex[lirsEntry, *lirsEntry]
	capacity  int
	llirs     int // target LIR set size
	lhirs     int // target resident-HIR set size (= capacity - llirs)
	ghostCap  int // max non-resident HIR entries retained
	table     map[PageID]*lirsEntry
	s         *stdlist.List // recency stack; Front = most recent
	q         *stdlist.List // resident HIR queue; Front = oldest (victim end)
	ghostAge  *stdlist.List // ghosts in creation order; Front = oldest
	nLIR      int
	nResident int
}

var (
	_ Policy     = (*LIRS)(nil)
	_ Prefetcher = (*LIRS)(nil)
)

// NewLIRS returns a LIRS policy with the paper-recommended 1% HIR
// allocation and a ghost history bounded at 2× capacity.
func NewLIRS(capacity int) *LIRS {
	return NewLIRSTuned(capacity, max(1, capacity/100), 2*capacity)
}

// NewLIRSTuned returns a LIRS policy with an explicit resident-HIR
// allocation (lhirs, in pages) and ghost-history bound.
func NewLIRSTuned(capacity, lhirs, ghostCap int) *LIRS {
	checkCap("lirs", capacity)
	if lhirs < 1 || lhirs >= capacity {
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
	return &LIRS{
		prefetchIndex: newPrefetchIndex[lirsEntry](capacity),

		capacity: capacity,
		llirs:    capacity - lhirs,
		lhirs:    lhirs,
		ghostCap: ghostCap,
		table:    make(map[PageID]*lirsEntry, capacity+ghostCap),
		s:        stdlist.New(),
		q:        stdlist.New(),
		ghostAge: stdlist.New(),
	}
}

// Name implements Policy.
func (p *LIRS) Name() string { return "lirs" }

// Cap implements Policy.
func (p *LIRS) Cap() int { return p.capacity }

// Len implements Policy.
func (p *LIRS) Len() int { return p.nResident }

// Contains reports whether id is resident (LIR or resident HIR).
func (p *LIRS) Contains(id PageID) bool {
	e, ok := p.table[id]
	return ok && e.state != lirsHIRGhost
}

// LIRCount returns the current number of LIR pages; used by invariant tests.
func (p *LIRS) LIRCount() int { return p.nLIR }

// GhostCount returns the current number of non-resident history entries.
func (p *LIRS) GhostCount() int { return p.ghostAge.Len() }

// Hit records an access to a resident page.
func (p *LIRS) Hit(id PageID) {
	e, ok := p.table[id]
	if !ok || e.state == lirsHIRGhost {
		return
	}
	switch e.state {
	case lirsLIR:
		wasBottom := p.s.Back() == e.sElem
		p.s.MoveToFront(e.sElem)
		if wasBottom {
			p.prune()
		}
	case lirsHIR:
		if e.sElem != nil {
			// Resident HIR with stack presence: its new inter-reference
			// recency is small, so it becomes LIR; the stack-bottom LIR
			// page is demoted to keep the LIR set size on target.
			p.s.MoveToFront(e.sElem)
			e.state = lirsLIR
			p.q.Remove(e.qElem)
			e.qElem = nil
			p.nLIR++
			if p.nLIR > p.llirs {
				p.demoteBottom()
			}
			p.prune()
		} else {
			// Resident HIR not on the stack: status unchanged; refresh its
			// recency on S and its position in Q.
			e.sElem = p.s.PushFront(e)
			p.q.MoveToBack(e.qElem)
		}
	}
}

// demoteBottom turns the LIR page at the stack bottom into a resident HIR
// page at the tail of Q. The pruning invariant guarantees the bottom entry
// is LIR whenever nLIR > 0.
func (p *LIRS) demoteBottom() {
	bottom := p.s.Back()
	if bottom == nil {
		return
	}
	e := bottom.Value.(*lirsEntry)
	if e.state != lirsLIR {
		// Should be unreachable given the pruning invariant; tolerate by
		// pruning and retrying once.
		p.prune()
		bottom = p.s.Back()
		if bottom == nil {
			return
		}
		e = bottom.Value.(*lirsEntry)
		if e.state != lirsLIR {
			return
		}
	}
	p.s.Remove(bottom)
	e.sElem = nil
	e.state = lirsHIR
	e.qElem = p.q.PushBack(e)
	p.nLIR--
}

// prune removes non-LIR entries from the stack bottom until the bottom is a
// LIR page (or the stack is empty). Resident HIR pages merely leave the
// stack; ghosts are dropped entirely.
func (p *LIRS) prune() {
	for {
		bottom := p.s.Back()
		if bottom == nil {
			return
		}
		e := bottom.Value.(*lirsEntry)
		if e.state == lirsLIR {
			return
		}
		p.s.Remove(bottom)
		e.sElem = nil
		if e.state == lirsHIRGhost {
			p.ghostAge.Remove(e.gElem)
			delete(p.table, e.id)
		}
	}
}

// Admit makes id resident after a miss, evicting the oldest resident HIR
// page if the buffer is full.
func (p *LIRS) Admit(id PageID) (victim PageID, evicted bool) {
	e, present := p.table[id]
	if present && e.state != lirsHIRGhost {
		mustAbsent("lirs", true)
	}
	if present {
		// Ghost hit: fully detach the history entry now, so that the
		// eviction below (ghost trimming, pruning) cannot free the entry
		// we are about to promote.
		p.ghostAge.Remove(e.gElem)
		e.gElem = nil
		if e.sElem != nil {
			p.s.Remove(e.sElem)
			e.sElem = nil
		}
		delete(p.table, id)
	}
	if p.nResident == p.capacity {
		victim = p.evictHIR()
		evicted = true
	}
	switch {
	case p.nLIR < p.llirs && !present:
		// Warm-up (or post-Remove refill): fill the LIR set first.
		e = &lirsEntry{id: id, state: lirsLIR}
		e.sElem = p.s.PushFront(e)
		p.table[id] = e
		p.nLIR++
	case present:
		// Ghost hit: small reuse distance, so the page enters as LIR and
		// the stack-bottom LIR page is demoted.
		e.state = lirsLIR
		e.sElem = p.s.PushFront(e)
		p.table[id] = e
		p.nLIR++
		if p.nLIR > p.llirs {
			p.demoteBottom()
		}
		p.prune()
	default:
		// Cold miss with a full LIR set: enter as resident HIR.
		e = &lirsEntry{id: id, state: lirsHIR}
		e.sElem = p.s.PushFront(e)
		e.qElem = p.q.PushBack(e)
		p.table[id] = e
	}
	p.nResident++
	p.note(id, e)
	return victim, evicted
}

// Evict removes and returns one resident page following LIRS's rule (the
// oldest resident HIR page).
func (p *LIRS) Evict() (PageID, bool) {
	if p.nResident == 0 {
		return 0, false
	}
	return p.evictHIR(), true
}

// evictHIR evicts the page at the front of Q. If Q is empty (possible after
// explicit Removes), a LIR page is demoted first to produce a victim.
func (p *LIRS) evictHIR() PageID {
	if p.q.Len() == 0 {
		p.demoteBottom()
	}
	front := p.q.Front()
	e := front.Value.(*lirsEntry)
	p.q.Remove(front)
	e.qElem = nil
	p.nResident--
	p.forget(e.id)
	if e.sElem != nil && p.ghostCap > 0 {
		// Still on the stack: keep it as a ghost so a prompt re-reference
		// is recognised as low-IRR.
		e.state = lirsHIRGhost
		e.gElem = p.ghostAge.PushBack(e)
		if p.ghostAge.Len() > p.ghostCap {
			oldest := p.ghostAge.Front()
			g := oldest.Value.(*lirsEntry)
			p.ghostAge.Remove(oldest)
			if g.sElem != nil {
				p.s.Remove(g.sElem)
			}
			delete(p.table, g.id)
		}
	} else {
		if e.sElem != nil {
			p.s.Remove(e.sElem)
			e.sElem = nil
		}
		delete(p.table, e.id)
	}
	return e.id
}

// Remove deletes a page from the resident set (and its history entry).
func (p *LIRS) Remove(id PageID) {
	e, ok := p.table[id]
	if !ok {
		return
	}
	if e.sElem != nil {
		p.s.Remove(e.sElem)
		e.sElem = nil
	}
	switch e.state {
	case lirsLIR:
		p.nLIR--
		p.nResident--
		p.forget(id)
		p.prune()
	case lirsHIR:
		p.q.Remove(e.qElem)
		e.qElem = nil
		p.nResident--
		p.forget(id)
	case lirsHIRGhost:
		p.ghostAge.Remove(e.gElem)
		e.gElem = nil
	}
	delete(p.table, id)
}
