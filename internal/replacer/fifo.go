package replacer

// FIFO evicts pages in arrival order, ignoring hits entirely: LRU's list
// with nothing ever moved up it. It is the weakest baseline in the suite
// but useful in hit-ratio comparisons and as the degenerate case many
// approximation arguments start from.
type FIFO struct{ LRU }

// NewFIFO returns a FIFO policy holding at most capacity pages.
func NewFIFO(capacity int) *FIFO {
	p := &FIFO{}
	p.initLRU(p, "fifo", capacity)
	return p
}

// HitSlot is a no-op for FIFO (arrival order is unaffected by accesses).
func (p *FIFO) HitSlot(uint32, PageID) {}

// HitSlots implements SlotBatcher: no-op, and declared so that LRU's is not
// inherited.
func (p *FIFO) HitSlots([]Access) {}

// Hit implements Policy: nothing to look up.
func (p *FIFO) Hit(PageID) {}
