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
	prefetchIndex[lrukEntry, *lrukEntry]
	capacity int
	k        int
	clock    int64

	table map[PageID]*lrukEntry
	heap  lrukHeap
}

// lrukEntry is the per-page reference history: a circular buffer of the
// last K reference times.
type lrukEntry struct {
	id      PageID
	hist    []int64 // hist[i]: i-th most recent is maintained via rotation
	n       int     // references recorded (capped at k)
	version uint64  // bumped on every update; stale heap items are skipped
}

// touch implements touchable for prefetching.
func (e *lrukEntry) touch() uint64 {
	s := uint64(e.id) ^ uint64(e.n) ^ e.version
	for _, h := range e.hist {
		s ^= uint64(h)
	}
	return s
}

// kDistanceKey returns the eviction key: the K-th most recent reference
// time, or a value that sorts before every real time when the page has
// fewer than K references (infinite backward distance). Ties among
// <K-reference pages break by their most recent reference (LRU).
func (e *lrukEntry) kDistanceKey(k int) (int64, int64) {
	if e.n < k {
		return -1, e.hist[0] // infinite distance; LRU tie-break
	}
	return e.hist[k-1], e.hist[0]
}

// lrukItem is a heap entry snapshot.
type lrukItem struct {
	entry   *lrukEntry
	version uint64
	kth     int64
	recent  int64
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

var (
	_ Policy     = (*LRUK)(nil)
	_ Prefetcher = (*LRUK)(nil)
)

// NewLRU2 returns an LRU-2 policy, the classic configuration.
func NewLRU2(capacity int) *LRUK { return NewLRUK(capacity, 2) }

// NewLRUK returns an LRU-K policy with explicit K >= 1 (K=1 degenerates to
// plain LRU).
func NewLRUK(capacity, k int) *LRUK {
	checkCap("lru2", capacity)
	if k < 1 {
		panic("replacer: lruk: k must be >= 1")
	}
	return &LRUK{
		prefetchIndex: newPrefetchIndex[lrukEntry](capacity),

		capacity: capacity,
		k:        k,
		table:    make(map[PageID]*lrukEntry, capacity),
	}
}

// Name implements Policy.
func (p *LRUK) Name() string { return "lru2" }

// Cap implements Policy.
func (p *LRUK) Cap() int { return p.capacity }

// Len implements Policy.
func (p *LRUK) Len() int { return len(p.table) }

// Contains implements Policy.
func (p *LRUK) Contains(id PageID) bool {
	_, ok := p.table[id]
	return ok
}

// record registers a reference: rotate the history and repush the heap
// snapshot.
func (p *LRUK) record(e *lrukEntry) {
	p.clock++
	// Shift history: newest at [0].
	copy(e.hist[1:], e.hist[:len(e.hist)-1])
	e.hist[0] = p.clock
	if e.n < p.k {
		e.n++
	}
	e.version++
	kth, recent := e.kDistanceKey(p.k)
	p.heap.push(lrukItem{entry: e, version: e.version, kth: kth, recent: recent})
	if len(p.heap) > 8*p.capacity {
		p.compact()
	}
}

// compact rebuilds the heap from the live entries, discarding stale
// snapshots; amortized O(1) per operation by the 8× growth trigger.
func (p *LRUK) compact() {
	p.heap = p.heap[:0]
	for _, e := range p.table {
		kth, recent := e.kDistanceKey(p.k)
		p.heap = append(p.heap, lrukItem{entry: e, version: e.version, kth: kth, recent: recent})
	}
	p.heap.init()
}

// Hit implements Policy.
func (p *LRUK) Hit(id PageID) {
	if e, ok := p.table[id]; ok {
		p.record(e)
	}
}

// Admit implements Policy.
func (p *LRUK) Admit(id PageID) (victim PageID, evicted bool) {
	mustAbsent("lru2", p.Contains(id))
	if len(p.table) == p.capacity {
		victim, evicted = p.Evict()
	}
	e := &lrukEntry{id: id, hist: make([]int64, p.k)}
	p.table[id] = e
	p.record(e)
	p.note(id, e)
	return victim, evicted
}

// Evict implements Policy: pop heap items until one matches a live,
// current entry; that page has the maximal backward K-distance.
func (p *LRUK) Evict() (PageID, bool) {
	for len(p.heap) > 0 {
		it := p.heap.pop()
		e := it.entry
		if cur, ok := p.table[e.id]; !ok || cur != e || e.version != it.version {
			continue // stale snapshot
		}
		delete(p.table, e.id)
		p.forget(e.id)
		return e.id, true
	}
	return 0, false
}

// Remove implements Policy. The heap entries become stale and are skipped
// lazily.
func (p *LRUK) Remove(id PageID) {
	if _, ok := p.table[id]; ok {
		delete(p.table, id)
		p.forget(id)
	}
}
