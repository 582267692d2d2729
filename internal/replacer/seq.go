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
	slab
	threshold int
	main      *list // front = MRU
	scan      *list // scan-marked pages (fScan); front = MRU, evicted from back first

	runs map[uint32]seqRun // per table: the miss run in progress
}

// seqRun is one table's sequence detector: the last block that missed and
// how many consecutive blocks have missed up to it.
type seqRun struct {
	last uint64
	n    int
}

// DefaultSEQThreshold is the consecutive-miss run length that flags a
// sequential scan.
const DefaultSEQThreshold = 4

// NewSEQ returns a SEQ policy with the default detection threshold.
func NewSEQ(capacity int) *SEQ { return NewSEQTuned(capacity, DefaultSEQThreshold) }

// NewSEQTuned returns a SEQ policy with an explicit detection threshold
// (the number of consecutive-block misses that marks a table as mid-scan).
func NewSEQTuned(capacity, threshold int) *SEQ {
	if threshold < 2 {
		panic("replacer: seq: threshold must be >= 2")
	}
	p := &SEQ{threshold: threshold, runs: make(map[uint32]seqRun)}
	p.init(p, "seq", capacity, 0, 0, 2)
	p.main, p.scan = p.newList("main", fLive), p.newList("scan", fLive|fScan)
	return p
}

// Len implements Policy.
func (p *SEQ) Len() int { return p.main.len() + p.scan.len() }

// ScanResident reports how many resident pages are currently scan-marked;
// used by tests and diagnostics.
func (p *SEQ) ScanResident() int { return p.scan.len() }

// HitSlot refreshes the page's recency; a re-referenced scan page has
// proven reuse and is promoted to the main list.
func (p *SEQ) HitSlot(slot uint32, id PageID) {
	nd := p.resident(slot, id)
	switch {
	case nd == nil:
	case nd.has(fScan):
		p.scan.remove(slot)
		nd.flags &^= fScan
		p.main.pushFront(slot)
	default:
		p.main.moveToFront(slot)
	}
}

// HitSlots implements SlotBatcher.
func (p *SEQ) HitSlots(batch []Access) {
	for _, a := range batch {
		p.HitSlot(a.Tag.Slot, a.ID)
	}
}

// AdmitSlot records the miss in the per-table sequence detector and admits
// the page, marking it as a scan page when its table is mid-scan. Scan
// pages are evicted before any main-list page.
func (p *SEQ) AdmitSlot(slot uint32, id PageID) (victim Victim, evicted bool) {
	tab, block := id.Table(), id.Block()
	run, seen := p.runs[tab]
	if seen && block == run.last+1 {
		run.n++
	} else {
		run.n = 1
	}
	run.last = block
	p.runs[tab] = run

	if p.Len() == p.capacity {
		victim, evicted = p.evict(nil)
	}
	nd := p.place(slot, id)
	if run.n >= p.threshold {
		nd.flags |= fScan
		p.scan.pushFront(slot)
	} else {
		p.main.pushFront(slot)
	}
	return victim, evicted
}

// evict removes the oldest scan page claim takes if any exist, otherwise
// the main list's page nearest its LRU end that claim takes.
func (p *SEQ) evict(claim func(Victim) bool) (Victim, bool) {
	if l, i := p.claimIn(claim, false, p.scan, p.main); l != nil {
		l.remove(i)
		return p.vacate(i), true
	}
	return Victim{}, false
}

// RemoveSlot deletes a page from the resident set.
func (p *SEQ) RemoveSlot(slot uint32, id PageID) {
	nd := p.resident(slot, id)
	switch {
	case nd == nil:
		return
	case nd.has(fScan):
		p.scan.remove(slot)
	default:
		p.main.remove(slot)
	}
	p.vacate(slot)
}
