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
	prefetchIndex[node, *node]
	capacity int
	kin      int // max length of A1in
	kout     int // max length of A1out (ghosts)

	table map[PageID]*node // resident and ghost entries
	a1in  *list            // front = newest
	a1out *list            // ghosts; front = newest
	am    *list            // front = MRU
	spare spareNodes
}

var (
	_ Policy     = (*TwoQ)(nil)
	_ Prefetcher = (*TwoQ)(nil)
)

// NewTwoQ returns a 2Q policy with the paper-recommended tuning:
// Kin = capacity/4 and Kout = capacity/2 (each at least 1).
func NewTwoQ(capacity int) *TwoQ {
	return NewTwoQTuned(capacity, max(1, capacity/4), max(1, capacity/2))
}

// NewTwoQTuned returns a 2Q policy with explicit Kin (A1in capacity) and
// Kout (A1out ghost capacity) parameters.
func NewTwoQTuned(capacity, kin, kout int) *TwoQ {
	checkCap("2q", capacity)
	if kin < 1 || kin > capacity {
		panic("replacer: 2q: kin out of range [1, capacity]")
	}
	if kout < 1 {
		panic("replacer: 2q: kout must be >= 1")
	}
	return &TwoQ{
		prefetchIndex: newPrefetchIndex[node](capacity),

		capacity: capacity,
		kin:      kin,
		kout:     kout,
		table:    make(map[PageID]*node, capacity+kout),
		a1in:     newList(),
		a1out:    newList(),
		am:       newList(),
	}
}

// Name implements Policy.
func (p *TwoQ) Name() string { return "2q" }

// Cap implements Policy.
func (p *TwoQ) Cap() int { return p.capacity }

// Len implements Policy.
func (p *TwoQ) Len() int { return p.a1in.len() + p.am.len() }

// Contains reports whether id is resident (on A1in or Am; ghosts on A1out
// are not resident).
func (p *TwoQ) Contains(id PageID) bool {
	nd, ok := p.table[id]
	return ok && !nd.ghost
}

// Hit records an access to a resident page: Am pages move to the MRU end;
// A1in pages deliberately stay put (2Q's correlated-reference filter).
// Ghost or absent ids are ignored.
func (p *TwoQ) Hit(id PageID) {
	nd, ok := p.table[id]
	if !ok || nd.ghost {
		return
	}
	if nd.hot { // on Am
		p.am.moveToFront(nd)
	}
	// On A1in: no action, by design.
}

// Admit makes id resident after a miss. A ghost hit on A1out promotes the
// page straight into Am; otherwise it enters A1in. If the buffer is full a
// victim is reclaimed first, preferring A1in once it exceeds Kin.
func (p *TwoQ) Admit(id PageID) (victim PageID, evicted bool) {
	nd, present := p.table[id]
	if present && !nd.ghost {
		mustAbsent("2q", true)
	}
	if present {
		// Ghost hit: detach the ghost now so that reclaim's A1out trimming
		// cannot free the very entry we are promoting.
		p.a1out.remove(nd)
		delete(p.table, id)
	}
	if p.Len() == p.capacity {
		victim = p.reclaim()
		evicted = true
	}
	if present {
		// The page has proven re-reference; admit straight into Am.
		nd.ghost = false
		nd.hot = true
		p.table[id] = nd
		p.am.pushFront(nd)
	} else {
		nd = p.spare.get(id)
		p.table[id] = nd
		p.a1in.pushFront(nd)
	}
	p.note(id, nd)
	return victim, evicted
}

// reclaim frees one resident slot following 2Q's rule: if A1in holds more
// than Kin pages (or Am is empty), evict A1in's oldest page and remember it
// on A1out; otherwise evict Am's LRU page with no ghost.
func (p *TwoQ) reclaim() PageID {
	if p.a1in.len() > 0 && (p.a1in.len() >= p.kin || p.am.len() == 0) {
		nd := p.a1in.popBack()
		p.forget(nd.id)
		// Keep the entry as a ghost on A1out.
		nd.ghost = true
		p.a1out.pushFront(nd)
		if p.a1out.len() > p.kout {
			old := p.a1out.popBack()
			delete(p.table, old.id)
			p.spare.put(old)
		}
		return nd.id
	}
	nd := p.am.popBack()
	id := nd.id
	delete(p.table, id)
	p.forget(id)
	p.spare.put(nd)
	return id
}

// Evict removes and returns one resident page following the 2Q reclaim
// rule.
func (p *TwoQ) Evict() (PageID, bool) {
	if p.Len() == 0 {
		return 0, false
	}
	return p.reclaim(), true
}

// Remove deletes a page from the resident set (and drops any ghost entry).
func (p *TwoQ) Remove(id PageID) {
	nd, ok := p.table[id]
	if !ok {
		return
	}
	switch {
	case nd.ghost:
		p.a1out.remove(nd)
	case nd.hot:
		p.am.remove(nd)
		p.forget(id)
	default:
		p.a1in.remove(nd)
		p.forget(id)
	}
	delete(p.table, id)
	p.spare.put(nd)
}

// QueueLengths reports the current (A1in, A1out, Am) list lengths; used by
// invariant tests and diagnostics.
func (p *TwoQ) QueueLengths() (a1in, a1out, am int) {
	return p.a1in.len(), p.a1out.len(), p.am.len()
}
