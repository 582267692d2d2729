package replacer

// LRU is the classic least-recently-used replacement algorithm: resident
// pages form a recency list; a hit moves the page to the MRU end; eviction
// takes the LRU end. This is the algorithm whose clock approximation
// (CLOCK) stock PostgreSQL adopted for scalability, and the canonical
// example used throughout the BP-Wrapper paper.
type LRU struct {
	prefetchIndex[node, *node]
	capacity int
	table    map[PageID]*node
	lst      *list // front = MRU, back = LRU
	spare    spareNodes
}

var _ Policy = (*LRU)(nil)
var _ Prefetcher = (*LRU)(nil)

// NewLRU returns an LRU policy holding at most capacity pages.
func NewLRU(capacity int) *LRU {
	checkCap("lru", capacity)
	return &LRU{
		prefetchIndex: newPrefetchIndex[node](capacity),

		capacity: capacity,
		table:    make(map[PageID]*node, capacity),
		lst:      newList(),
	}
}

// Name implements Policy.
func (p *LRU) Name() string { return "lru" }

// Cap implements Policy.
func (p *LRU) Cap() int { return p.capacity }

// Len implements Policy.
func (p *LRU) Len() int { return p.lst.len() }

// Contains implements Policy.
func (p *LRU) Contains(id PageID) bool {
	_, ok := p.table[id]
	return ok
}

// Hit moves the page to the MRU position. Non-resident ids are ignored.
func (p *LRU) Hit(id PageID) {
	if nd, ok := p.table[id]; ok {
		p.lst.moveToFront(nd)
	}
}

// Admit inserts a new page at the MRU position, evicting the LRU page if
// the policy is at capacity.
func (p *LRU) Admit(id PageID) (victim PageID, evicted bool) {
	mustAbsent("lru", p.Contains(id))
	if p.Len() == p.capacity {
		victim, evicted = p.Evict()
	}
	nd := p.spare.get(id)
	p.table[id] = nd
	p.lst.pushFront(nd)
	p.note(id, nd)
	return victim, evicted
}

// Evict removes and returns the page at the LRU position.
func (p *LRU) Evict() (PageID, bool) {
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
func (p *LRU) Remove(id PageID) {
	if nd, ok := p.table[id]; ok {
		p.lst.remove(nd)
		delete(p.table, id)
		p.forget(id)
		p.spare.put(nd)
	}
}
