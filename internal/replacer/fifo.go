package replacer

// FIFO evicts pages in arrival order, ignoring hits entirely. It is the
// weakest baseline in the suite but useful in hit-ratio comparisons and as
// the degenerate case many approximation arguments start from.
type FIFO struct {
	prefetchIndex[node, *node]
	capacity int
	table    map[PageID]*node
	lst      *list // front = newest, back = oldest
	spare    spareNodes
}

var _ Policy = (*FIFO)(nil)
var _ Prefetcher = (*FIFO)(nil)

// NewFIFO returns a FIFO policy holding at most capacity pages.
func NewFIFO(capacity int) *FIFO {
	checkCap("fifo", capacity)
	return &FIFO{
		prefetchIndex: newPrefetchIndex[node](capacity),

		capacity: capacity,
		table:    make(map[PageID]*node, capacity),
		lst:      newList(),
	}
}

// Name implements Policy.
func (p *FIFO) Name() string { return "fifo" }

// Cap implements Policy.
func (p *FIFO) Cap() int { return p.capacity }

// Len implements Policy.
func (p *FIFO) Len() int { return p.lst.len() }

// Contains implements Policy.
func (p *FIFO) Contains(id PageID) bool {
	_, ok := p.table[id]
	return ok
}

// Hit is a no-op for FIFO (arrival order is unaffected by accesses).
func (p *FIFO) Hit(id PageID) {}

// Admit inserts a new page at the head of the queue, evicting the oldest
// page if the policy is at capacity.
func (p *FIFO) Admit(id PageID) (victim PageID, evicted bool) {
	mustAbsent("fifo", p.Contains(id))
	if p.Len() == p.capacity {
		victim, evicted = p.Evict()
	}
	nd := p.spare.get(id)
	p.table[id] = nd
	p.lst.pushFront(nd)
	p.note(id, nd)
	return victim, evicted
}

// Evict removes and returns the oldest page.
func (p *FIFO) Evict() (PageID, bool) {
	nd := p.lst.popBack()
	if nd == nil {
		return 0, false
	}
	id := nd.id
	delete(p.table, id)
	p.forget(id)
	p.spare.put(nd)
	return id, true
}

// Remove deletes a page from the resident set.
func (p *FIFO) Remove(id PageID) {
	if nd, ok := p.table[id]; ok {
		p.lst.remove(nd)
		delete(p.table, id)
		p.forget(id)
		p.spare.put(nd)
	}
}
