package replacer

import "fmt"

// This file gives every policy its invariant check: the cheap O(1)
// structural identities each algorithm promises (count bookkeeping, list
// length identities, adaptation targets within range) plus a deep O(n) audit
// of the slab — every list's links and flags, every node free or on exactly
// one list, the id index filing exactly what it should — that is only
// enabled in builds with the `torture` tag — see torture_on.go — or when
// forced via CheckDeep. The torture harness calls these between operations
// and at quiescent points, so the checks must never mutate policy state.

// Checker is implemented by policies that can verify their own structural
// invariants. CheckInvariants must be called with the same serialization
// its other methods require (the policy lock) and must not mutate state.
type Checker interface {
	CheckInvariants() error
}

// Check runs p's invariant checker if it implements one (all policies in
// this package do). Callers must hold the policy lock.
func Check(p Policy) error {
	if c, ok := p.(Checker); ok {
		return c.CheckInvariants()
	}
	return nil
}

// deepChecker is the unexported two-level hook behind Checker.
type deepChecker interface {
	check(deep bool) error
}

// CheckDeep runs p's invariant checker with the deep O(n) walks forced on,
// regardless of build tags. Callers must hold the policy lock.
func CheckDeep(p Policy) error {
	if c, ok := p.(deepChecker); ok {
		return c.check(true)
	}
	return Check(p)
}

// audit is one deep check's ledger of a slab: how many times the lists
// walked so far have reached each node.
type audit struct {
	s    *slab
	seen []uint8
}

func (s *slab) errorf(format string, args ...any) error {
	return fmt.Errorf("replacer: "+s.name+": "+format, args...)
}

// auditFn is a policy's own check of one list node.
type auditFn func(a *audit, l *list, i uint32, nd *node) error

// linked reports whether node i's neighbours exist and point back at it.
func linked(nodes []node, i uint32) bool {
	nd := &nodes[i]
	return int(nd.next) < len(nodes) && int(nd.prev) < len(nodes) && nodes[nd.next].prev == i && nodes[nd.prev].next == i
}

// walk verifies a list's link integrity, recorded length and node flags,
// applying fn (optional) to every node. The walk is bounded by the recorded
// length so a cyclic corruption cannot hang it.
func (a *audit) walk(l *list, fn auditFn) error {
	n := 0
	for i := l.nodes[l.root].next; i != l.root; i = l.nodes[i].next {
		nd := &l.nodes[i]
		if !linked(l.nodes, i) {
			return a.s.errorf("%s: broken links at %v", l.name, nd.id)
		}
		if n++; n > l.n {
			return a.s.errorf("%s: walk exceeds recorded length %d", l.name, l.n)
		}
		a.seen[i]++
		if nd.flags&l.mask != l.want {
			return a.s.errorf("%s: node %v has flags %#x", l.name, nd.id, nd.flags)
		}
		if fn != nil {
			if err := fn(a, l, i, nd); err != nil {
				return err
			}
		}
	}
	if n != l.n {
		return a.s.errorf("%s: walked %d nodes, recorded length %d", l.name, n, l.n)
	}
	return nil
}

// done closes the audit once every list has been walked: each slot is free
// or a resident page on exactly one list, each history entry is free or in
// use on exactly one list, the id index files exactly the history entries
// (and, once the policy hands out its own slots, the resident pages), and
// as many pages are resident as the policy says.
func (a *audit) done() error {
	s := a.s
	live, filed := 0, 0
	for i := 0; i < s.indexed; i++ {
		nd := &s.nodes[i]
		switch {
		case nd.flags == 0:
			if a.seen[i] != 0 {
				return s.errorf("free node %d is on a list", i)
			}
			continue
		case a.seen[i] != 1:
			return s.errorf("node %d (%v) is on %d lists", i, nd.id, a.seen[i])
		case nd.has(fGhost|fHeader) != (i > s.capacity):
			return s.errorf("node %d (%v) with flags %#x on the wrong side of the slots", i, nd.id, nd.flags)
		}
		if !nd.has(fGhost | fHeader) {
			live++
		}
		if nd.has(fGhost) || (s.byID && !nd.has(fHeader)) {
			filed++
			if j, ok := s.ix.Load().lookup(nd.id); !ok || int(j) != i {
				return s.errorf("node %d (%v) not filed in the id index", i, nd.id)
			}
		}
	}
	if live != s.self.Len() {
		return s.errorf("%d resident nodes, Len %d", live, s.self.Len())
	}
	if ix := s.ix.Load(); ix != nil {
		n := 0
		for _, j := range ix.heads {
			for ; j != 0 && n <= filed; j = ix.next[j-1] {
				n++
			}
		}
		if n != filed {
			return s.errorf("id index files %d entries, %d nodes should be filed", n, filed)
		}
	}
	return nil
}

// checkLists is the check of a policy whose every page is on one of its
// lists — and the whole check of LRU, FIFO and SEQ: Len within capacity,
// and deep, the audit above with fn (optional) applied to every list node.
func (s *slab) checkLists(deep bool, fn auditFn) error {
	if n := s.self.Len(); n < 0 || n > s.capacity {
		return s.errorf("Len %d outside [0, cap %d]", n, s.capacity)
	}
	if !deep {
		return nil
	}
	a := &audit{s: s, seen: make([]uint8, len(s.nodes))}
	for i := range s.lists {
		if err := a.walk(&s.lists[i], fn); err != nil {
			return err
		}
	}
	return a.done()
}

func (s *slab) check(deep bool) error { return s.checkLists(deep, nil) }

// ---- LFU ----

func (p *LFU) check(deep bool) error {
	header, above := nilIdx, int32(0) // the run being walked, and its frequency
	err := p.checkLists(deep, func(_ *audit, _ *list, i uint32, nd *node) error {
		switch {
		case nd.has(fHeader):
			if header != nilIdx && (above <= nd.count || nd.prev == header) {
				return p.errorf("run of frequency %d follows run of %d", nd.count, above)
			}
			header, above = i, nd.count
		case header == nilIdx || uint32(nd.tick) != header || nd.count != above:
			return p.errorf("page %v (freq %d, header %d) in the run of header %d (freq %d)", nd.id, nd.count, nd.tick, header, above)
		}
		return nil
	})
	if err == nil && header != nilIdx && p.lst.back() == header {
		err = p.errorf("empty run of frequency %d at the back", above)
	}
	return err
}

// ---- LRU-K ----

func (p *LRUK) check(deep bool) error {
	if !deep {
		return p.checkLists(false, nil)
	}
	// LRU-K keeps no list: the heap finds its pages by slot.
	a := &audit{s: &p.slab, seen: make([]uint8, len(p.nodes))}
	for i := range p.slots {
		nd := &p.slots[i]
		if nd.flags == 0 {
			continue
		}
		a.seen[i]++
		if nd.count < 1 || int(nd.count) > p.k || nd.tick != p.hist[i*p.k] {
			return p.errorf("entry %v: %d references recorded (k = %d), last at %d, history says %d",
				nd.id, nd.count, p.k, nd.tick, p.hist[i*p.k])
		}
	}
	return a.done()
}

// ---- 2Q ----

func (p *TwoQ) check(deep bool) error {
	if p.a1out.len() > p.kout {
		return p.errorf("a1out %d > kout %d", p.a1out.len(), p.kout)
	}
	return p.checkLists(deep, nil)
}

// ---- LIRS ----

func (p *LIRS) check(deep bool) error {
	switch {
	case p.nLIR > p.llirs:
		return p.errorf("LIR count %d > target %d", p.nLIR, p.llirs)
	case p.q.len() != p.nResident-p.nLIR:
		return p.errorf("Q holds %d, want resident-LIR = %d", p.q.len(), p.nResident-p.nLIR)
	case p.ghostAge.len() > p.ghostCap:
		return p.errorf("%d ghosts > cap %d", p.ghostAge.len(), p.ghostCap)
	}
	// Every page is on the stack, on one of the twins' lists, or both: a
	// LIR page on S alone, a resident HIR page on Q, a ghost on the age
	// FIFO. The audit counts a page once: by S if it is LIR, else by the
	// list its twin is on.
	lir := 0
	err := p.checkLists(deep, func(a *audit, l *list, i uint32, nd *node) error {
		switch e := i - p.qoff; {
		case l == p.s && nd.has(fHot):
			lir++
		case l == p.s:
			a.seen[i]--
		case int(e) >= p.indexed || p.nodes[e].flags&(fLive|fHot) != fLive || p.nodes[e].has(fGhost) != (l == p.ghostAge):
			return p.errorf("%s: twin %d of a node that does not belong there", l.name, i)
		default:
			a.seen[e]++
		}
		return nil
	})
	if err == nil && deep && lir != p.nLIR {
		err = p.errorf("%d LIR pages on the stack, recorded %d", lir, p.nLIR)
	}
	return err
}

// ---- ARC / CAR ----

// check verifies the list-length identities ARC and CAR share — the
// directory invariants of the ARC paper (|T1|+|T2| ≤ c, |T1|+|B1| ≤ c,
// total ≤ 2c) and the adaptation target's range — and, deep, the ghost/hot
// flag pattern both maintain: T1 fresh, T2 proven, B1/B2 their ghosts.
func (p *ARC) check(deep bool) error {
	c := p.capacity
	t1, t2, b1, b2 := p.ListLengths()
	switch {
	case t1+b1 > c:
		return p.errorf("T1+B1 = %d > cap %d", t1+b1, c)
	case t1+t2+b1+b2 > 2*c:
		return p.errorf("directory %d > 2×cap %d", t1+t2+b1+b2, 2*c)
	case p.p < 0 || p.p > c:
		return p.errorf("target p=%d outside [0, %d]", p.p, c)
	}
	return p.checkLists(deep, nil)
}

// ---- CLOCK / GCLOCK ----

func (p *Clock) check(deep bool) error {
	if p.length > p.capacity {
		return fmt.Errorf("replacer: %s: length %d > cap %d", p.name, p.length, p.capacity)
	}
	if (p.hand == nilIdx) != (p.length == 0) {
		return fmt.Errorf("replacer: %s: hand nil=%v with length %d", p.name, p.hand == nilIdx, p.length)
	}
	if !deep {
		return nil
	}
	resident := 0
	p.eachResident(func(uint32, PageID) { resident++ })
	if resident != p.length {
		return fmt.Errorf("replacer: %s: %d slots hold pages, length %d", p.name, resident, p.length)
	}
	n := 0
	for i := p.hand; n < p.length; i = p.nodes[i].next {
		nd := &p.nodes[i]
		if int(nd.next) >= len(p.nodes) || int(nd.prev) >= len(p.nodes) || p.nodes[nd.next].prev != i || p.nodes[nd.prev].next != i {
			return fmt.Errorf("replacer: %s: broken ring links at slot %d", p.name, i)
		}
		if ref := nd.ref.Load(); ref < 0 || ref > p.maxCount {
			return fmt.Errorf("replacer: %s: page %v reference count %d outside [0, %d]", p.name, PageID(nd.id.Load()), ref, p.maxCount)
		}
		if p.byID {
			if j, ok := p.ix.Load().lookup(PageID(nd.id.Load())); !ok || j != i {
				return fmt.Errorf("replacer: %s: ring node %v not filed in the id index", p.name, PageID(nd.id.Load()))
			}
		}
		n++
	}
	if n > 0 && p.nodes[p.nodes[p.hand].prev].next != p.hand {
		return fmt.Errorf("replacer: %s: ring does not close on the hand", p.name)
	}
	return nil
}

// ---- CLOCK-Pro ----

func (p *ClockPro) check(deep bool) error {
	total := p.nHot + p.nColdRes + p.nNR
	switch {
	case p.Len() > p.capacity:
		return p.errorf("Len %d > cap %d", p.Len(), p.capacity)
	case p.nNR > p.capacity:
		return p.errorf("%d non-resident pages > cap %d", p.nNR, p.capacity)
	case p.coldTarget < 1 || p.coldTarget > p.capacity:
		return p.errorf("cold target %d outside [1, %d]", p.coldTarget, p.capacity)
	case (p.handHot == nilIdx) != (total == 0):
		return p.errorf("hands nil=%v with %d entries", p.handHot == nilIdx, total)
	}
	if !deep || total == 0 {
		return nil
	}
	a := &audit{s: &p.slab, seen: make([]uint8, len(p.nodes))}
	var hot, coldRes, nonRes, n int
	for i := p.handHot; ; {
		nd := &p.nodes[i]
		if !linked(p.nodes, i) {
			return p.errorf("broken ring links at %v", nd.id)
		}
		a.seen[i]++
		switch {
		case !nd.has(fLive):
			return p.errorf("free node %d on the ring", i)
		case nd.has(fHot):
			hot++
			if nd.has(fGhost | fTest) {
				return p.errorf("hot page %v has flags %#x", nd.id, nd.flags)
			}
		case !nd.has(fGhost):
			coldRes++
		default:
			nonRes++
			if !nd.has(fTest) {
				return p.errorf("non-resident page %v outside its test period", nd.id)
			}
		}
		if n++; n > total {
			return p.errorf("ring walk exceeds %d entries", total)
		}
		if i = nd.next; i == p.handHot {
			break
		}
	}
	if hot != p.nHot || coldRes != p.nColdRes || nonRes != p.nNR {
		return p.errorf("counted hot/cold/nonres %d/%d/%d, recorded %d/%d/%d", hot, coldRes, nonRes, p.nHot, p.nColdRes, p.nNR)
	}
	if p.handCold == nilIdx || p.handTest == nilIdx || a.seen[p.handCold] == 0 || a.seen[p.handTest] == 0 {
		return p.errorf("a hand is off the ring while it holds %d entries", n)
	}
	return a.done()
}

// ---- MQ ----

func (p *MQ) check(deep bool) error {
	sum := 0
	for _, q := range p.queues {
		sum += q.len()
	}
	if sum != p.length {
		return p.errorf("queue sum %d != length %d", sum, p.length)
	}
	if p.qout.len() > p.qoutCap {
		return p.errorf("qout %d > cap %d", p.qout.len(), p.qoutCap)
	}
	return p.checkLists(deep, func(_ *audit, l *list, _ uint32, nd *node) error {
		// A node may sit BELOW its frequency's natural queue after expiry
		// demotion, never above it.
		if l != p.qout && (int(nd.level) >= p.numQ || l != p.queues[nd.level] || nd.level > p.queueFor(nd.count)) {
			return p.errorf("node %v (freq %d, level %d) on %s, natural queue %d", nd.id, nd.count, nd.level, l.name, p.queueFor(nd.count))
		}
		return nil
	})
}
