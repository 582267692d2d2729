package replacer

// CLOCK-Pro (Jiang, Chen & Zhang, USENIX 2005) is the clock-based
// approximation of LIRS. All page metadata — hot pages, resident cold
// pages, and non-resident cold pages still in their test period — sits on
// one circular list swept by three hands:
//
//   - handCold points at the oldest resident cold page and produces
//     victims;
//   - handHot points at the oldest hot page and demotes hot pages whose
//     reference bits are clear;
//   - handTest terminates test periods to bound the non-resident metadata
//     at the cache size.
//
// A cold page re-referenced during its test period is promoted to hot; the
// cold-page allocation target adapts up on non-resident (ghost) hits and
// down when test periods expire unused.
//
// The BP-Wrapper paper cites CLOCK-Pro as a clock approximation that gives
// up history fidelity for lock avoidance; this implementation exists so the
// hit-ratio experiments can compare it against real LIRS.
type ClockPro struct {
	prefetchIndex[cpEntry, *cpEntry]
	capacity   int
	coldTarget int // adaptive allocation for resident cold pages, in [1, capacity]

	table    map[PageID]*cpEntry
	handHot  *cpEntry
	handCold *cpEntry
	handTest *cpEntry
	nHot     int
	nColdRes int
	nNR      int // non-resident pages in their test period
}

// cpEntry is a CLOCK-Pro ring element.
type cpEntry struct {
	prev, next *cpEntry
	id         PageID
	hot        bool
	resident   bool
	test       bool // cold page currently in its test period
	ref        bool
}

// touch implements touchable for prefetching.
func (e *cpEntry) touch() uint64 {
	s := uint64(e.id)
	if e.hot {
		s ^= 1
	}
	if e.resident {
		s ^= 2
	}
	if e.test {
		s ^= 4
	}
	if e.ref {
		s ^= 8
	}
	if p := e.prev; p != nil {
		s ^= uint64(p.id)
	}
	if n := e.next; n != nil {
		s ^= uint64(n.id)
	}
	return s
}

var (
	_ Policy     = (*ClockPro)(nil)
	_ Prefetcher = (*ClockPro)(nil)
)

// NewClockPro returns a CLOCK-Pro policy holding at most capacity resident
// pages, with the cold allocation target initialised to capacity/2.
func NewClockPro(capacity int) *ClockPro {
	checkCap("clockpro", capacity)
	return &ClockPro{
		prefetchIndex: newPrefetchIndex[cpEntry](capacity),

		capacity:   capacity,
		coldTarget: max(1, capacity/2),
		table:      make(map[PageID]*cpEntry, 2*capacity),
	}
}

// Name implements Policy.
func (p *ClockPro) Name() string { return "clockpro" }

// Cap implements Policy.
func (p *ClockPro) Cap() int { return p.capacity }

// Len implements Policy.
func (p *ClockPro) Len() int { return p.nHot + p.nColdRes }

// Counts reports (hot, resident cold, non-resident) entry counts; used by
// invariant tests.
func (p *ClockPro) Counts() (hot, coldRes, nonResident int) {
	return p.nHot, p.nColdRes, p.nNR
}

// Contains reports whether id is resident.
func (p *ClockPro) Contains(id PageID) bool {
	e, ok := p.table[id]
	return ok && e.resident
}

// Hit sets the page's reference bit, the clock-family hit operation.
func (p *ClockPro) Hit(id PageID) {
	e, ok := p.table[id]
	if !ok || !e.resident {
		return
	}
	e.ref = true
}

// insertHead links e into the ring at the "list head" position (just
// behind handHot, as in the paper). If the ring is empty all hands start
// at e.
func (p *ClockPro) insertHead(e *cpEntry) {
	if p.handHot == nil {
		e.prev, e.next = e, e
		p.handHot, p.handCold, p.handTest = e, e, e
		return
	}
	at := p.handHot.prev
	e.prev, e.next = at, p.handHot
	at.next = e
	p.handHot.prev = e
}

// unlink removes e from the ring, advancing any hand that points at it.
func (p *ClockPro) unlink(e *cpEntry) {
	if e.next == e {
		p.handHot, p.handCold, p.handTest = nil, nil, nil
	} else {
		if p.handHot == e {
			p.handHot = e.next
		}
		if p.handCold == e {
			p.handCold = e.next
		}
		if p.handTest == e {
			p.handTest = e.next
		}
		e.prev.next = e.next
		e.next.prev = e.prev
	}
	e.prev, e.next = nil, nil
}

// Admit makes id resident after a miss. A non-resident (test-period) hit
// promotes the page to hot and grows the cold allocation; a plain miss
// admits the page as a cold page in its test period.
func (p *ClockPro) Admit(id PageID) (victim PageID, evicted bool) {
	e, present := p.table[id]
	if present && e.resident {
		mustAbsent("clockpro", true)
	}
	if present {
		// Ghost hit during test period: the page has a small reuse
		// distance. Grow the cold allocation and re-admit as hot.
		p.coldTarget = min(p.coldTarget+1, p.capacity)
		p.unlink(e)
		delete(p.table, id)
		p.nNR--
	}
	if p.Len() == p.capacity {
		victim = p.runHandCold()
		evicted = true
	}
	ne := &cpEntry{id: id, resident: true}
	if present {
		ne.hot = true
		p.insertHead(ne)
		p.table[id] = ne
		p.nHot++
		for p.nHot > p.capacity-min(p.coldTarget, p.capacity-1) {
			p.runHandHot()
		}
	} else {
		ne.test = true
		p.insertHead(ne)
		p.table[id] = ne
		p.nColdRes++
		for p.nNR > p.capacity {
			p.runHandTest()
		}
	}
	p.note(id, ne)
	return victim, evicted
}

// Evict removes and returns the page handCold selects.
func (p *ClockPro) Evict() (PageID, bool) {
	if p.Len() == 0 {
		return 0, false
	}
	return p.runHandCold(), true
}

// runHandCold sweeps handCold until it evicts one resident cold page,
// returning its id. Referenced cold pages in their test period are promoted
// to hot on the way; referenced cold pages out of test get a renewed test
// period at the head.
func (p *ClockPro) runHandCold() PageID {
	if p.nColdRes == 0 {
		// All resident pages are hot; demote one to produce a cold victim
		// candidate.
		p.runHandHot()
	}
	for {
		e := p.handCold
		p.handCold = e.next
		if !e.resident || e.hot {
			continue
		}
		if e.ref {
			e.ref = false
			if e.test {
				// Re-accessed within its test period: promote to hot.
				e.hot = true
				e.test = false
				p.nColdRes--
				p.nHot++
				for p.nHot > p.capacity-min(p.coldTarget, p.capacity-1) {
					p.runHandHot()
				}
				if p.nColdRes == 0 {
					p.runHandHot()
				}
			} else {
				// Re-accessed but out of test: give it a fresh test period
				// at the head.
				p.unlink(e)
				e.test = true
				p.insertHead(e)
			}
			continue
		}
		// Unreferenced resident cold page: evict it.
		e.resident = false
		p.forget(e.id)
		p.nColdRes--
		if e.test {
			// Keep as a non-resident page for the rest of its test period.
			p.nNR++
			for p.nNR > p.capacity {
				p.runHandTest()
			}
		} else {
			p.unlink(e)
			delete(p.table, e.id)
		}
		return e.id
	}
}

// runHandHot demotes one hot page to cold-resident status, clearing
// reference bits on the way (second chance).
func (p *ClockPro) runHandHot() {
	if p.nHot == 0 {
		return
	}
	for {
		e := p.handHot
		p.handHot = e.next
		if !e.hot {
			continue
		}
		if e.ref {
			e.ref = false
			continue
		}
		e.hot = false
		e.test = false
		p.nHot--
		p.nColdRes++
		return
	}
}

// runHandTest terminates one test period: a passed non-resident page is
// removed from the metadata; a resident cold page merely leaves its test
// period, shrinking the cold allocation.
func (p *ClockPro) runHandTest() {
	if p.nNR == 0 {
		return
	}
	for {
		e := p.handTest
		p.handTest = e.next
		if e.hot {
			continue
		}
		if !e.resident {
			p.unlink(e)
			delete(p.table, e.id)
			p.nNR--
			return
		}
		if e.test {
			// A resident cold page whose test period expires unused:
			// shrink the cold allocation.
			e.test = false
			p.coldTarget = max(1, p.coldTarget-1)
		}
	}
}

// Remove deletes a page from the resident set or the test-period history.
func (p *ClockPro) Remove(id PageID) {
	e, ok := p.table[id]
	if !ok {
		return
	}
	switch {
	case e.hot:
		p.nHot--
		p.forget(id)
	case e.resident:
		p.nColdRes--
		p.forget(id)
	default:
		p.nNR--
	}
	p.unlink(e)
	delete(p.table, id)
}
