package replacer

// node is one entry of a policy's slab (slab.go): a page id, the links of
// the intrusive list it is on, and the small per-page metadata the various
// algorithms need, in 32 bytes. Keeping all of it in the node (as
// PostgreSQL keeps it in the buffer descriptor) is what makes the prefetch
// walk meaningful: committing a batched hit touches exactly these fields.
// Links are slab indexes, so a node names its neighbours in four bytes each
// and the whole structure is one allocation the collector never scans.
type node struct {
	id         PageID
	prev, next uint32 // neighbours on the node's list, nilIdx off every list
	tick       int64  // MQ expiry time; LRU-K time of last reference; LFU index of the run's header
	count      int32  // GCLOCK counter, LFU frequency, MQ frequency, LRU-K references recorded
	level      uint8  // MQ queue index
	flags      uint8
}

// nilIdx is the link of a node that is on no list.
const nilIdx = ^uint32(0)

// Node flags. A node is free (zero flags), a resident page (fLive), a
// history entry for a page that is not resident (fLive|fGhost), or a list's
// own furniture (a sentinel, zero flags; an LFU run header, fLive|fHeader).
const (
	fLive   uint8 = 1 << iota // the node holds a page, resident or remembered
	fGhost                    // history only: 2Q A1out, ARC/CAR B1/B2, LIRS non-resident HIR, MQ Qout, CLOCK-Pro test page
	fHot                      // 2Q: in Am; ARC/CAR: T2 or B2; LIRS: LIR; CLOCK-Pro: hot
	fRef                      // CAR/CLOCK-Pro reference bit
	fTest                     // CLOCK-Pro: in its test period
	fScan                     // SEQ: admitted while its table was mid-scan
	fHeader                   // LFU: opens a run of equal frequency; holds no page
)

func (nd *node) has(f uint8) bool { return nd.flags&f != 0 }

// list is a sentinel-based circular doubly-linked list threaded through a
// slab's nodes by index. The zero value is not usable; slab.newList makes
// them.
type list struct {
	nodes []node
	root  uint32 // the sentinel's index
	n     int
	name  string // for the invariant check, as are mask and want:
	mask  uint8  // every node on the list has flags&mask == want
	want  uint8
}

func (l *list) len() int { return l.n }

// front returns the first element, or nilIdx if the list is empty.
func (l *list) front() uint32 {
	if l.n == 0 {
		return nilIdx
	}
	return l.nodes[l.root].next
}

// back returns the last element, or nilIdx if the list is empty.
func (l *list) back() uint32 {
	if l.n == 0 {
		return nilIdx
	}
	return l.nodes[l.root].prev
}

// pushFront inserts node i at the front of the list.
func (l *list) pushFront(i uint32) { l.insertAfter(i, l.root) }

// pushBack inserts node i at the back of the list.
func (l *list) pushBack(i uint32) { l.insertAfter(i, l.nodes[l.root].prev) }

// insertAfter links node i immediately after at.
func (l *list) insertAfter(i, at uint32) {
	nd, a := &l.nodes[i], &l.nodes[at]
	nd.prev, nd.next = at, a.next
	l.nodes[a.next].prev = i
	a.next = i
	l.n++
}

// remove unlinks node i, which must be an element of l.
func (l *list) remove(i uint32) {
	nd := &l.nodes[i]
	l.nodes[nd.prev].next = nd.next
	l.nodes[nd.next].prev = nd.prev
	nd.prev, nd.next = nilIdx, nilIdx
	l.n--
}

// moveToFront moves an element of l to the front.
func (l *list) moveToFront(i uint32) {
	if l.nodes[l.root].next != i {
		l.remove(i)
		l.pushFront(i)
	}
}

// moveToBack moves an element of l to the back.
func (l *list) moveToBack(i uint32) {
	if l.nodes[l.root].prev != i {
		l.remove(i)
		l.pushBack(i)
	}
}

// popFront removes and returns the first element, or nilIdx if empty.
func (l *list) popFront() uint32 {
	i := l.front()
	if i != nilIdx {
		l.remove(i)
	}
	return i
}

// popBack removes and returns the last element, or nilIdx if empty.
func (l *list) popBack() uint32 {
	i := l.back()
	if i != nilIdx {
		l.remove(i)
	}
	return i
}
