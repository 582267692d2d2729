package replacer

// LFU evicts the resident page with the smallest access frequency, breaking
// ties by least-recent arrival among pages of equal frequency. It is
// implemented with the standard frequency-bucket list structure (O(1) per
// operation): buckets ordered by ascending frequency, each holding its
// pages in arrival order.
type LFU struct {
	prefetchIndex[node, *node]
	capacity int
	table    map[PageID]*node
	buckets  map[int]*list // frequency → pages at that frequency (front = newest)
	minFreq  int
	length   int
	spare    spareNodes
	idle     *list // the last bucket list that emptied, for the next bucket that opens
}

var _ Policy = (*LFU)(nil)
var _ Prefetcher = (*LFU)(nil)

// NewLFU returns an LFU policy holding at most capacity pages.
func NewLFU(capacity int) *LFU {
	checkCap("lfu", capacity)
	return &LFU{
		prefetchIndex: newPrefetchIndex[node](capacity),

		capacity: capacity,
		table:    make(map[PageID]*node, capacity),
		buckets:  make(map[int]*list),
	}
}

// Name implements Policy.
func (p *LFU) Name() string { return "lfu" }

// Cap implements Policy.
func (p *LFU) Cap() int { return p.capacity }

// Len implements Policy.
func (p *LFU) Len() int { return p.length }

// Contains implements Policy.
func (p *LFU) Contains(id PageID) bool {
	_, ok := p.table[id]
	return ok
}

func (p *LFU) bucket(freq int) *list {
	b, ok := p.buckets[freq]
	if !ok {
		if b = p.idle; b != nil {
			p.idle = nil
		} else {
			b = newList()
		}
		p.buckets[freq] = b
	}
	return b
}

// closeBucket drops the emptied bucket of freq, keeping its list: a hit
// that empties one bucket usually opens the next, so the list moves along
// with the page instead of being reallocated.
func (p *LFU) closeBucket(freq int, b *list) {
	delete(p.buckets, freq)
	p.idle = b
}

// Hit increments the page's frequency, moving it to the next bucket.
func (p *LFU) Hit(id PageID) {
	nd, ok := p.table[id]
	if !ok {
		return
	}
	old := p.buckets[nd.count]
	old.remove(nd)
	if old.len() == 0 {
		p.closeBucket(nd.count, old)
		if p.minFreq == nd.count {
			p.minFreq = nd.count + 1
		}
	}
	nd.count++
	p.bucket(nd.count).pushFront(nd)
}

// Admit inserts a new page with frequency 1, evicting the least-frequently-
// used page (oldest within the lowest-frequency bucket) if at capacity.
func (p *LFU) Admit(id PageID) (victim PageID, evicted bool) {
	mustAbsent("lfu", p.Contains(id))
	if p.length == p.capacity {
		victim, evicted = p.Evict()
	}
	nd := p.spare.get(id)
	nd.count = 1
	p.table[id] = nd
	p.bucket(1).pushFront(nd)
	p.minFreq = 1
	p.length++
	p.note(id, nd)
	return victim, evicted
}

// Evict removes and returns the least-frequently-used page (oldest within
// the lowest-frequency bucket).
func (p *LFU) Evict() (PageID, bool) {
	if p.length == 0 {
		return 0, false
	}
	b, ok := p.buckets[p.minFreq]
	for !ok || b.len() == 0 {
		// minFreq can be stale after removals; advance to the next
		// populated bucket. Bounded by the max frequency seen.
		p.minFreq++
		b, ok = p.buckets[p.minFreq]
	}
	nd := b.popBack()
	if b.len() == 0 {
		p.closeBucket(p.minFreq, b)
	}
	id := nd.id
	delete(p.table, id)
	p.forget(id)
	p.spare.put(nd)
	p.length--
	return id, true
}

// Remove deletes a page from the resident set.
func (p *LFU) Remove(id PageID) {
	nd, ok := p.table[id]
	if !ok {
		return
	}
	b := p.buckets[nd.count]
	b.remove(nd)
	if b.len() == 0 {
		p.closeBucket(nd.count, b)
	}
	delete(p.table, id)
	p.forget(id)
	p.spare.put(nd)
	p.length--
	if p.length == 0 {
		p.minFreq = 0
	}
}
