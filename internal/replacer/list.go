package replacer

// node is an intrusive doubly-linked list element carrying a page id plus
// the small per-page metadata the various algorithms need. Using one shared
// node type (rather than container/list's interface{} elements) avoids
// boxing on the hot path and lets Prefetch walk real pointers, which is the
// whole point of the prefetching technique.
type node struct {
	prev, next *node
	id         PageID

	// Per-algorithm metadata. Keeping these in the node (as PostgreSQL
	// keeps them in the buffer descriptor) is what makes the prefetch walk
	// meaningful: committing a batched hit touches exactly these fields.
	ref   bool  // CLOCK/CAR/CLOCK-Pro reference bit
	count int   // GCLOCK counter, LFU frequency, MQ frequency
	hot   bool  // LIRS: LIR page; CLOCK-Pro: hot page; 2Q: in Am
	ghost bool  // entry is history-only (non-resident)
	level int   // MQ queue index
	tick  int64 // MQ expiry time / LIRS recency aid
}

// list is a sentinel-based circular doubly-linked list of nodes.
// The zero value is not usable; call init first (newList does).
type list struct {
	root node
	n    int
}

func newList() *list {
	l := &list{}
	l.root.prev = &l.root
	l.root.next = &l.root
	return l
}

func (l *list) len() int { return l.n }

// front returns the first element or nil if the list is empty.
func (l *list) front() *node {
	if l.n == 0 {
		return nil
	}
	return l.root.next
}

// back returns the last element or nil if the list is empty.
func (l *list) back() *node {
	if l.n == 0 {
		return nil
	}
	return l.root.prev
}

// pushFront inserts nd at the front of the list.
func (l *list) pushFront(nd *node) {
	l.insertAfter(nd, &l.root)
}

// pushBack inserts nd at the back of the list.
func (l *list) pushBack(nd *node) {
	l.insertAfter(nd, l.root.prev)
}

// insertAfter links nd immediately after at.
func (l *list) insertAfter(nd, at *node) {
	nd.prev = at
	nd.next = at.next
	at.next.prev = nd
	at.next = nd
	l.n++
}

// remove unlinks nd from the list. nd must be an element of l.
func (l *list) remove(nd *node) {
	nd.prev.next = nd.next
	nd.next.prev = nd.prev
	nd.prev = nil
	nd.next = nil
	l.n--
}

// moveToFront moves an element of l to the front.
func (l *list) moveToFront(nd *node) {
	if l.root.next == nd {
		return
	}
	l.remove(nd)
	l.pushFront(nd)
}

// moveToBack moves an element of l to the back.
func (l *list) moveToBack(nd *node) {
	if l.root.prev == nd {
		return
	}
	l.remove(nd)
	l.pushBack(nd)
}

// popFront removes and returns the first element, or nil if empty.
func (l *list) popFront() *node {
	nd := l.front()
	if nd != nil {
		l.remove(nd)
	}
	return nd
}

// popBack removes and returns the last element, or nil if empty.
func (l *list) popBack() *node {
	nd := l.back()
	if nd != nil {
		l.remove(nd)
	}
	return nd
}

// each calls fn for every element from front to back. fn must not mutate
// the list.
func (l *list) each(fn func(*node)) {
	for nd := l.root.next; nd != &l.root; nd = nd.next {
		fn(nd)
	}
}

// spareNodes is a policy's chain of nodes it has dropped — a victim that
// leaves no ghost, a ghost trimmed off its queue, a removed page — kept for
// the next Admit, so that a policy at capacity, which drops one node for
// every one it admits, admits without allocating. The chain never holds
// more nodes than the policy once had live, so it needs no bound.
type spareNodes struct {
	head *node // linked through next
}

// put takes a node that is off every list and out of the table. Its
// metadata is cleared here, so a caller reads what it needs first.
func (s *spareNodes) put(nd *node) {
	*nd = node{next: s.head}
	s.head = nd
}

// get returns a node for id with zero metadata, linked nowhere: a dropped
// one when there is one.
func (s *spareNodes) get(id PageID) *node {
	nd := s.head
	if nd == nil {
		return &node{id: id}
	}
	s.head = nd.next
	nd.next = nil
	nd.id = id
	return nd
}
