package replacer

// LRUK implements the LRU-K replacement algorithm (O'Neil, O'Neil &
// Weikum, SIGMOD 1993) for K=2 by default. 2Q — the BP-Wrapper paper's
// headline policy — was introduced as "a low overhead, high performance"
// alternative to exactly this algorithm, so having the original here lets
// the hit-ratio studies show what 2Q approximates.
//
// LRU-K evicts the resident page whose K-th most recent reference is
// oldest (backward K-distance), treating pages with fewer than K
// references as having infinite distance (evicted first, LRU among
// themselves). The Correlated Reference Period of the original paper is
// set to zero: in a DBMS buffer the upper layers have already collapsed
// intra-transaction re-references, as the paper's own deployment notes.
//
// The victim search uses a lazy min-heap keyed by the K-th reference time:
// stale heap entries (for pages re-referenced or evicted since the entry
// was pushed) are skipped on pop, keeping Hit at O(log n) amortized.
type LRUK struct {
	slab
	k       int
	clock   int64   // one tick per recorded reference, so no two are alike
	hist    []int64 // k reference times per slot, newest first
	heap    lrukHeap
	refused lrukHeap // evict's scratch: the snapshots claim refused
	length  int
}

// A page's node keeps how many references it has recorded (count, capped at
// k) and the time of the last (tick), which doubles as the version stale
// heap snapshots are told by: every record moves it to a time no snapshot
// has seen.

// lrukItem is a heap entry: one page's eviction key as of one reference.
// The key is the K-th most recent reference time, or a value that sorts
// before every real time when the page has fewer than K references (infinite
// backward distance); ties among those break by the most recent reference
// (LRU).
type lrukItem struct {
	slot   uint32
	kth    int64
	recent int64
}

// lrukHeap is a binary min-heap of snapshots, oldest K-th reference first.
// It is container/heap's algorithm written against the element type: going
// through heap.Interface boxed one lrukItem per Push — one allocation per
// Hit — and the sift order is kept identical so victims do not change.
type lrukHeap []lrukItem

func (h lrukHeap) less(i, j int) bool {
	if h[i].kth != h[j].kth {
		return h[i].kth < h[j].kth
	}
	return h[i].recent < h[j].recent
}

func (h *lrukHeap) push(it lrukItem) {
	*h = append(*h, it)
	h.up(len(*h) - 1)
}

// pop removes and returns the minimum; the heap must not be empty.
func (h *lrukHeap) pop() lrukItem {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	*h = old[:n]
	return old[n]
}

// init establishes the heap order over arbitrary contents.
func (h lrukHeap) init() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

func (h lrukHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h lrukHeap) down(i, n int) {
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && h.less(r, j) {
			j = r
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// NewLRU2 returns an LRU-2 policy, the classic configuration.
func NewLRU2(capacity int) *LRUK { return NewLRUK(capacity, 2) }

// NewLRUK returns an LRU-K policy with explicit K >= 1 (K=1 degenerates to
// plain LRU).
func NewLRUK(capacity, k int) *LRUK {
	if k < 1 {
		panic("replacer: lruk: k must be >= 1")
	}
	p := &LRUK{k: k}
	p.init(p, "lru2", capacity, 0, 0, 0)
	p.hist = make([]int64, (capacity+1)*k)
	return p
}

// Len implements Policy.
func (p *LRUK) Len() int { return p.length }

// snapshot returns the heap entry for the page in slot as it stands.
func (p *LRUK) snapshot(slot uint32) lrukItem {
	hist := p.hist[int(slot)*p.k:][:p.k]
	it := lrukItem{slot: slot, kth: -1, recent: hist[0]}
	if int(p.nodes[slot].count) == p.k {
		it.kth = hist[p.k-1]
	}
	return it
}

// record registers a reference: rotate the history and push a fresh heap
// snapshot.
func (p *LRUK) record(slot uint32) {
	p.clock++
	nd := &p.nodes[slot]
	// Shift history: newest at [0].
	hist := p.hist[int(slot)*p.k:][:p.k]
	copy(hist[1:], hist)
	hist[0] = p.clock
	if int(nd.count) < p.k {
		nd.count++
	}
	nd.tick = p.clock
	p.heap.push(p.snapshot(slot))
	if len(p.heap) > 8*p.capacity {
		p.compact()
	}
}

// compact rebuilds the heap from the live entries, discarding stale
// snapshots; amortized O(1) per operation by the 8× growth trigger.
func (p *LRUK) compact() {
	p.heap = p.heap[:0]
	p.eachResident(func(slot uint32, _ PageID) { p.heap = append(p.heap, p.snapshot(slot)) })
	p.heap.init()
}

// HitSlot implements SlotPolicy.
func (p *LRUK) HitSlot(slot uint32, id PageID) {
	if p.resident(slot, id) != nil {
		p.record(slot)
	}
}

// HitSlots implements SlotBatcher.
func (p *LRUK) HitSlots(batch []Access) {
	for _, a := range batch {
		p.HitSlot(a.Tag.Slot, a.ID)
	}
}

// AdmitSlot implements SlotPolicy.
func (p *LRUK) AdmitSlot(slot uint32, id PageID) (victim Victim, evicted bool) {
	if p.length == p.capacity {
		victim, evicted = p.evict(nil)
	}
	p.place(slot, id)
	clear(p.hist[int(slot)*p.k:][:p.k])
	p.length++
	p.record(slot)
	return victim, evicted
}

// evict pops heap items until one is the current snapshot of a resident
// page that claim takes; every resident page has one, and the first has the
// maximal backward K-distance. Refused snapshots go back on the heap, where
// their keys, unique, sort them as before.
func (p *LRUK) evict(claim func(Victim) bool) (v Victim, ok bool) {
	for len(p.heap) > 0 && !ok {
		it := p.heap.pop()
		nd := &p.nodes[it.slot]
		switch {
		case nd.flags == 0 || nd.tick != it.recent: // stale snapshot
		case p.offer(claim, it.slot):
			p.length--
			v, ok = p.vacate(it.slot), true
		default:
			p.refused = append(p.refused, it)
		}
	}
	for _, it := range p.refused {
		p.heap.push(it)
	}
	p.refused = p.refused[:0]
	return v, ok
}

// RemoveSlot implements SlotPolicy. The heap entries become stale and are
// skipped lazily.
func (p *LRUK) RemoveSlot(slot uint32, id PageID) {
	if p.resident(slot, id) != nil {
		p.length--
		p.vacate(slot)
	}
}
