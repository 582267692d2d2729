package replacer

import "fmt"

// MQ is the Multi-Queue replacement algorithm (Zhou, Philbin & Li, USENIX
// 2001), designed for second-level buffer caches and one of the algorithms
// the BP-Wrapper paper wraps in place of 2Q with equivalent scalability
// results. Pages are kept in m LRU queues by access-frequency class
// (queue ⌊log2(freq)⌋, capped at m-1); a per-page expiry time demotes pages
// that stop being accessed; evicted pages leave a frequency-remembering
// ghost entry in Qout.
type MQ struct {
	slab
	numQ     int   // number of frequency queues (m)
	lifeTime int64 // accesses a page may sit in a queue before demotion
	qoutCap  int   // ghost capacity

	queues []*list // queues[k]: front = LRU end, back = MRU end
	qout   *list   // ghosts; front = oldest
	now    int64   // logical clock, one tick per access
	length int
}

// NewMQ returns an MQ policy with the paper's defaults: 8 queues, ghost
// directory of capacity entries, and a lifetime of 4× capacity accesses.
func NewMQ(capacity int) *MQ {
	return NewMQTuned(capacity, 8, int64(4*capacity), capacity)
}

// NewMQTuned returns an MQ policy with explicit queue count, lifetime
// (in accesses), and ghost capacity.
func NewMQTuned(capacity, numQ int, lifeTime int64, qoutCap int) *MQ {
	if numQ < 1 || numQ > 256 {
		panic("replacer: mq: numQ out of range [1, 256]")
	}
	if lifeTime < 1 {
		panic("replacer: mq: lifeTime must be >= 1")
	}
	if qoutCap < 0 {
		panic("replacer: mq: qoutCap must be >= 0")
	}
	p := &MQ{numQ: numQ, lifeTime: lifeTime, qoutCap: qoutCap, queues: make([]*list, numQ)}
	p.init(p, "mq", capacity, qoutCap+1, 0, numQ+1) // Qout holds qoutCap+1 between a push and its trim
	for i := range p.queues {
		p.queues[i] = p.newList(fmt.Sprintf("queue[%d]", i), fLive)
	}
	p.qout = p.newList("qout", fLive|fGhost)
	return p
}

// Len implements Policy.
func (p *MQ) Len() int { return p.length }

// queueFor maps an access frequency to its queue index: ⌊log2(f)⌋ capped.
func (p *MQ) queueFor(freq int32) uint8 {
	k := 0
	for f := freq; f > 1 && k < p.numQ-1; f >>= 1 {
		k++
	}
	return uint8(k)
}

// adjust demotes at most one expired queue-head per level, as MQ does on
// every access ("Adjust" in the original pseudo-code).
func (p *MQ) adjust() {
	for k := 1; k < p.numQ; k++ {
		if i := p.queues[k].front(); i != nilIdx && p.nodes[i].tick < p.now {
			p.queues[k].remove(i)
			p.enqueue(i, uint8(k-1))
		}
	}
}

// enqueue puts node i at the MRU end of queue level with a fresh expiry.
func (p *MQ) enqueue(i uint32, level uint8) {
	nd := &p.nodes[i]
	nd.level, nd.tick = level, p.now+p.lifeTime
	p.queues[level].pushBack(i)
}

// HitSlot records an access: the page's frequency is incremented, it moves
// to the MRU end of its (possibly higher) frequency queue, and its expiry
// is renewed.
func (p *MQ) HitSlot(slot uint32, id PageID) {
	nd := p.resident(slot, id)
	if nd == nil {
		return
	}
	p.now++
	p.queues[nd.level].remove(slot)
	nd.count++
	p.enqueue(slot, p.queueFor(nd.count))
	p.adjust()
}

// HitSlots implements SlotBatcher.
func (p *MQ) HitSlots(batch []Access) {
	for _, a := range batch {
		p.HitSlot(a.Tag.Slot, a.ID)
	}
}

// AdmitSlot makes id resident after a miss, restoring its remembered
// frequency if a ghost entry exists, and evicting the LRU page of the
// lowest non-empty queue if at capacity.
func (p *MQ) AdmitSlot(slot uint32, id PageID) (victim Victim, evicted bool) {
	p.now++
	freq := int32(1)
	if g, present := p.ghost(id); present {
		// Ghost hit: drop it before eviction can trim it, and restore the
		// remembered frequency.
		freq = p.nodes[g].count + 1
		p.qout.remove(g)
		p.dropGhost(g)
	}
	if p.length == p.capacity {
		victim, evicted = p.evict(nil)
	}
	p.place(slot, id).count = freq
	p.enqueue(slot, p.queueFor(freq))
	p.length++
	p.adjust()
	return victim, evicted
}

// evict removes the LRU page claim takes of the lowest queue that has one,
// remembering its frequency in Qout.
func (p *MQ) evict(claim func(Victim) bool) (Victim, bool) {
	q, i := p.claimIn(claim, true, p.queues...)
	if q == nil {
		return Victim{}, false
	}
	q.remove(i)
	p.length--
	if p.qoutCap == 0 {
		return p.vacate(i), true
	}
	v, g := p.toGhost(i)
	p.qout.pushBack(g)
	if p.qout.len() > p.qoutCap {
		p.dropGhost(p.qout.popFront())
	}
	return v, true
}

// RemoveSlot deletes a page from the resident set, or drops its ghost.
func (p *MQ) RemoveSlot(i uint32, id PageID) {
	nd := p.holder(i, id)
	switch {
	case nd == nil:
	case nd.has(fGhost):
		p.qout.remove(i)
		p.dropGhost(i)
	default:
		p.queues[nd.level].remove(i)
		p.length--
		p.vacate(i)
	}
}
