package replacer

// SEQ is a sequence-detecting, scan-resistant replacement policy in the
// spirit of SEQ (Glass & Cao, SIGMETRICS 1997) and of the sequential-scan
// handling in DB2's buffer policy — the class of algorithms the BP-Wrapper
// paper singles out as impossible to approximate with clocks or to
// partition across distributed locks, because they must observe the
// *globally ordered* miss stream to recognise sequences (Sections I and
// V-A).
//
// Detection: per table, a miss whose block number immediately follows the
// previous missed block extends a run; once a run reaches the detection
// threshold the table is considered mid-scan and subsequent admissions are
// marked as scan pages. Scan pages live on their own list and are evicted
// first (a completed scan's pages are worthless); a scan page that gets
// re-referenced is promoted to the main LRU list.
//
// The property the reproduction exercises: split the page space across k
// hash partitions (the distributed-lock design) and each partition sees
// only every k-th block of a scan — consecutive-block detection never
// fires, the scans pollute the buffer, and the hit ratio collapses. See
// the "distributed" experiment in internal/bench.
type SEQ struct {
	prefetchIndex[node, *node]
	capacity  int
	threshold int
	table     map[PageID]*node
	main      *list // front = MRU
	scan      *list // scan-marked pages; front = MRU, evicted from back first

	lastMiss map[uint32]uint64 // per-table: last missed block number
	runLen   map[uint32]int    // per-table: current consecutive-miss run
	spare    spareNodes
}

var (
	_ Policy     = (*SEQ)(nil)
	_ Prefetcher = (*SEQ)(nil)
)

// DefaultSEQThreshold is the consecutive-miss run length that flags a
// sequential scan.
const DefaultSEQThreshold = 4

// NewSEQ returns a SEQ policy with the default detection threshold.
func NewSEQ(capacity int) *SEQ { return NewSEQTuned(capacity, DefaultSEQThreshold) }

// NewSEQTuned returns a SEQ policy with an explicit detection threshold
// (the number of consecutive-block misses that marks a table as mid-scan).
func NewSEQTuned(capacity, threshold int) *SEQ {
	checkCap("seq", capacity)
	if threshold < 2 {
		panic("replacer: seq: threshold must be >= 2")
	}
	return &SEQ{
		prefetchIndex: newPrefetchIndex[node](capacity),

		capacity:  capacity,
		threshold: threshold,
		table:     make(map[PageID]*node, capacity),
		main:      newList(),
		scan:      newList(),
		lastMiss:  make(map[uint32]uint64),
		runLen:    make(map[uint32]int),
	}
}

// Name implements Policy.
func (p *SEQ) Name() string { return "seq" }

// Cap implements Policy.
func (p *SEQ) Cap() int { return p.capacity }

// Len implements Policy.
func (p *SEQ) Len() int { return p.main.len() + p.scan.len() }

// Contains implements Policy.
func (p *SEQ) Contains(id PageID) bool {
	_, ok := p.table[id]
	return ok
}

// ScanResident reports how many resident pages are currently scan-marked;
// used by tests and diagnostics.
func (p *SEQ) ScanResident() int { return p.scan.len() }

// Hit refreshes the page's recency; a re-referenced scan page has proven
// reuse and is promoted to the main list.
func (p *SEQ) Hit(id PageID) {
	nd, ok := p.table[id]
	if !ok {
		return
	}
	if nd.ghost { // ghost flag doubles as the scan marker here
		p.scan.remove(nd)
		nd.ghost = false
		p.main.pushFront(nd)
		return
	}
	p.main.moveToFront(nd)
}

// Admit records the miss in the per-table sequence detector and admits the
// page, marking it as a scan page when its table is mid-scan. Scan pages
// are evicted before any main-list page.
func (p *SEQ) Admit(id PageID) (victim PageID, evicted bool) {
	mustAbsent("seq", p.Contains(id))
	tab, block := id.Table(), id.Block()
	if last, ok := p.lastMiss[tab]; ok && block == last+1 {
		p.runLen[tab]++
	} else {
		p.runLen[tab] = 1
	}
	p.lastMiss[tab] = block
	inScan := p.runLen[tab] >= p.threshold

	if p.Len() == p.capacity {
		victim, evicted = p.Evict()
	}
	nd := p.spare.get(id)
	nd.ghost = inScan
	p.table[id] = nd
	if inScan {
		p.scan.pushFront(nd)
	} else {
		p.main.pushFront(nd)
	}
	p.note(id, nd)
	return victim, evicted
}

// Evict removes the oldest scan page if any exist, otherwise the main
// list's LRU page.
func (p *SEQ) Evict() (PageID, bool) {
	nd := p.scan.popBack()
	if nd == nil {
		nd = p.main.popBack()
	}
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
func (p *SEQ) Remove(id PageID) {
	nd, ok := p.table[id]
	if !ok {
		return
	}
	if nd.ghost {
		p.scan.remove(nd)
	} else {
		p.main.remove(nd)
	}
	delete(p.table, id)
	p.forget(id)
	p.spare.put(nd)
}
