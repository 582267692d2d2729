package replacer

// MQ is the Multi-Queue replacement algorithm (Zhou, Philbin & Li, USENIX
// 2001), designed for second-level buffer caches and one of the algorithms
// the BP-Wrapper paper wraps in place of 2Q with equivalent scalability
// results. Pages are kept in m LRU queues by access-frequency class
// (queue ⌊log2(freq)⌋, capped at m-1); a per-page expiry time demotes pages
// that stop being accessed; evicted pages leave a frequency-remembering
// ghost entry in Qout.
type MQ struct {
	prefetchIndex[node, *node]
	capacity int
	numQ     int   // number of frequency queues (m)
	lifeTime int64 // accesses a page may sit in a queue before demotion
	qoutCap  int   // ghost capacity

	table  map[PageID]*node
	queues []*list // queues[k]: front = LRU end, back = MRU end
	qout   *list   // ghosts; front = oldest
	now    int64   // logical clock, one tick per access
	length int
	spare  spareNodes
}

var (
	_ Policy     = (*MQ)(nil)
	_ Prefetcher = (*MQ)(nil)
)

// NewMQ returns an MQ policy with the paper's defaults: 8 queues, ghost
// directory of capacity entries, and a lifetime of 4× capacity accesses.
func NewMQ(capacity int) *MQ {
	return NewMQTuned(capacity, 8, int64(4*capacity), capacity)
}

// NewMQTuned returns an MQ policy with explicit queue count, lifetime
// (in accesses), and ghost capacity.
func NewMQTuned(capacity, numQ int, lifeTime int64, qoutCap int) *MQ {
	checkCap("mq", capacity)
	if numQ < 1 {
		panic("replacer: mq: numQ must be >= 1")
	}
	if lifeTime < 1 {
		panic("replacer: mq: lifeTime must be >= 1")
	}
	if qoutCap < 0 {
		panic("replacer: mq: qoutCap must be >= 0")
	}
	qs := make([]*list, numQ)
	for i := range qs {
		qs[i] = newList()
	}
	return &MQ{
		prefetchIndex: newPrefetchIndex[node](capacity),

		capacity: capacity,
		numQ:     numQ,
		lifeTime: lifeTime,
		qoutCap:  qoutCap,
		table:    make(map[PageID]*node, capacity+qoutCap),
		queues:   qs,
		qout:     newList(),
	}
}

// Name implements Policy.
func (p *MQ) Name() string { return "mq" }

// Cap implements Policy.
func (p *MQ) Cap() int { return p.capacity }

// Len implements Policy.
func (p *MQ) Len() int { return p.length }

// Contains reports whether id is resident.
func (p *MQ) Contains(id PageID) bool {
	nd, ok := p.table[id]
	return ok && !nd.ghost
}

// queueFor maps an access frequency to its queue index: ⌊log2(f)⌋ capped.
func (p *MQ) queueFor(freq int) int {
	k := 0
	for f := freq; f > 1 && k < p.numQ-1; f >>= 1 {
		k++
	}
	return k
}

// adjust demotes at most one expired queue-head per level, as MQ does on
// every access ("Adjust" in the original pseudo-code).
func (p *MQ) adjust() {
	for k := 1; k < p.numQ; k++ {
		head := p.queues[k].front()
		if head != nil && head.tick < p.now {
			p.queues[k].remove(head)
			head.level = k - 1
			head.tick = p.now + p.lifeTime
			p.queues[k-1].pushBack(head)
		}
	}
}

// Hit records an access: the page's frequency is incremented, it moves to
// the MRU end of its (possibly higher) frequency queue, and its expiry is
// renewed.
func (p *MQ) Hit(id PageID) {
	nd, ok := p.table[id]
	if !ok || nd.ghost {
		return
	}
	p.now++
	p.queues[nd.level].remove(nd)
	nd.count++
	nd.level = p.queueFor(nd.count)
	nd.tick = p.now + p.lifeTime
	p.queues[nd.level].pushBack(nd)
	p.adjust()
}

// Admit makes id resident after a miss, restoring its remembered frequency
// if a ghost entry exists, and evicting the LRU page of the lowest
// non-empty queue if at capacity.
func (p *MQ) Admit(id PageID) (victim PageID, evicted bool) {
	nd, present := p.table[id]
	if present && !nd.ghost {
		mustAbsent("mq", true)
	}
	p.now++
	freq := 1
	if present {
		// Ghost hit: detach before eviction can trim it, and restore the
		// remembered frequency.
		p.qout.remove(nd)
		delete(p.table, id)
		freq = nd.count + 1
		p.spare.put(nd)
	}
	if p.length == p.capacity {
		victim = p.evict()
		evicted = true
	}
	nd = p.spare.get(id)
	nd.count = freq
	nd.level = p.queueFor(freq)
	nd.tick = p.now + p.lifeTime
	p.table[id] = nd
	p.queues[nd.level].pushBack(nd)
	p.length++
	p.note(id, nd)
	p.adjust()
	return victim, evicted
}

// Evict removes and returns the LRU page of the lowest non-empty queue.
func (p *MQ) Evict() (PageID, bool) {
	if p.length == 0 {
		return 0, false
	}
	return p.evict(), true
}

// evict removes the LRU page of the lowest non-empty queue, remembering its
// frequency in Qout.
func (p *MQ) evict() PageID {
	for k := 0; k < p.numQ; k++ {
		nd := p.queues[k].popFront()
		if nd == nil {
			continue
		}
		p.length--
		p.forget(nd.id)
		if p.qoutCap > 0 {
			nd.ghost = true
			p.qout.pushBack(nd)
			if p.qout.len() > p.qoutCap {
				old := p.qout.popFront()
				delete(p.table, old.id)
				p.spare.put(old)
			}
			return nd.id
		}
		id := nd.id
		delete(p.table, id)
		p.spare.put(nd)
		return id
	}
	panic("replacer: mq: evict on empty policy")
}

// Remove deletes a page from the resident set (and any ghost entry).
func (p *MQ) Remove(id PageID) {
	nd, ok := p.table[id]
	if !ok {
		return
	}
	if nd.ghost {
		p.qout.remove(nd)
	} else {
		p.queues[nd.level].remove(nd)
		p.length--
		p.forget(id)
	}
	delete(p.table, id)
	p.spare.put(nd)
}
