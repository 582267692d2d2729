package replacer

import (
	"math/bits"
	"sync/atomic"
)

// This file is what the policies share: where their per-page metadata lives
// (slab), how a page id finds it when the caller has no frame slot to offer
// (front, idIndex), and the read-only walk of it that is the paper's
// prefetch (Section III-B).
//
// A policy's metadata is one array of nodes sized at construction, and a
// resident page's node is the one at the index of the buffer frame the page
// occupies — as PostgreSQL keeps the clock's usage count in the buffer
// descriptor and reaches it by buffer id. The buffer pool carries that
// index, the frame slot, in every access it records (page.BufferTag.Slot),
// so under the policy lock a committed hit is an array index and a list
// splice: no map, no hash, no second index to keep in step.
//
// Callers without frames — the simulator, trace replay —
// drive the same methods through the portable Policy contract: front looks
// the id up, or hands out a slot for it, and calls the slot-keyed method.

// idIndex maps page ids to slab indexes: chained hashing with the chains
// threaded through per-index arrays, so it is exact and never allocates
// after construction. It is written under the policy lock and may be read
// without it: a reader without the lock may miss an entry that is being
// moved or follow a chain into another bucket; it compares ids, so it never
// reports an index filed under a different page.
//
// Every load is atomic. The stores are atomic only if shared is set, which
// Clock sets: its Hit looks ids up without the lock in every build, so the
// index has to be race-free in the race detector's sense. The other
// policies' one lockless reader is the prefetch walk, a deliberate race that
// instrumented builds leave out (slab.touch); an atomic store is an XCHG,
// and nine of them on the way through an admission, under the lock, were
// most of what it cost.
type idIndex struct {
	heads  []uint32 // per bucket: index+1 of its first entry, 0 when empty
	next   []uint32 // per slab index: index+1 of the next entry in its chain
	ids    []uint64 // per slab index: the id it is filed under
	shift  uint     // 64 - log2(len(heads))
	shared bool
}

// newIDIndex sizes an index over n slab indexes: a power of two of buckets,
// at least n.
func newIDIndex(n int, shared bool) *idIndex {
	lg := uint(bits.Len(uint(n - 1)))
	return &idIndex{
		heads:  make([]uint32, 1<<lg),
		next:   make([]uint32, n),
		ids:    make([]uint64, n),
		shift:  64 - lg,
		shared: shared,
	}
}

// bucket returns the chain head for id (Fibonacci hashing: page ids are
// dense block numbers under a table prefix, which the multiply scatters).
func (ix *idIndex) bucket(id PageID) *uint32 {
	return &ix.heads[uint64(id)*0x9e3779b97f4a7c15>>ix.shift]
}

func (ix *idIndex) set(w *uint32, v uint32) {
	if ix.shared {
		atomic.StoreUint32(w, v)
	} else {
		*w = v
	}
}

// lookup returns the slab index id is filed under. The hop bound only
// matters to a reader racing the writer, whom relinking could otherwise
// lead round in circles.
func (ix *idIndex) lookup(id PageID) (uint32, bool) {
	i := atomic.LoadUint32(ix.bucket(id))
	for hops := 0; i != 0 && hops <= len(ix.next); hops++ {
		if atomic.LoadUint64(&ix.ids[i-1]) == uint64(id) {
			return i - 1, true
		}
		i = atomic.LoadUint32(&ix.next[i-1])
	}
	return 0, false
}

// insert files slab index i under id. Callers hold the policy lock.
func (ix *idIndex) insert(id PageID, i uint32) {
	b := ix.bucket(id)
	if ix.shared {
		atomic.StoreUint64(&ix.ids[i], uint64(id))
	} else {
		ix.ids[i] = uint64(id)
	}
	ix.set(&ix.next[i], *b)
	ix.set(b, i+1)
}

// remove unfiles slab index i, filed under id. Callers hold the policy lock.
func (ix *idIndex) remove(id PageID, i uint32) {
	for p := ix.bucket(id); *p != 0; p = &ix.next[*p-1] {
		if *p == i+1 {
			ix.set(p, ix.next[i])
			return
		}
	}
}

// slotted is what front and slab drive: the slot-keyed methods of the policy
// that embeds them, a walk of its resident pages, its replacement rule (which
// may assume a page is resident), and its invariant check.
type slotted interface {
	SlotPolicy
	eachResident(fn func(slot uint32, id PageID))
	evict(claim func(Victim) bool) (Victim, bool)
	check(deep bool) error
}

// front is the portable, id-keyed face of a slot-keyed policy — Contains,
// Hit, Admit, Evict and Remove of the Policy contract, each a lookup in
// front of the slot-keyed method — for callers that have no frames. Such a
// caller's first Admit makes the policy its own frame allocator: it files
// every resident page in an idIndex, chains the free slots, and from then on
// keeps both in step from inside the slot-keyed methods (admitted, vacated).
// A policy the buffer pool drives by slot never builds either; an id-keyed
// question put to one (an invariant check's Contains) is answered by a scan.
//
// The index also files a policy's history entries (slab.toGhost), which
// only ever have an id to be found by; it is built when the first of those
// is, if no Admit has built it before.
//
// A policy takes its admissions one way: AdmitSlot from a caller that owns
// the frames, or Admit, after which the slots are its own to hand out.
type front struct {
	self     slotted
	name     string
	capacity int
	indexed  int                     // slab indexes that can be filed: the slots and the history entries
	ix       atomic.Pointer[idIndex] // nil until the first Admit or the first history entry
	byID     bool                    // Admit has been called: residents are filed, free slots chained
	free     uint32                  // slot+1 of the first free slot, chained through ix.next; 0 for none
	lockFree bool                    // the policy looks ids up without the lock (Clock): idIndex.shared
}

// index returns the id index, building it on first use. Callers hold the
// policy lock.
func (f *front) index() *idIndex {
	ix := f.ix.Load()
	if ix == nil {
		ix = newIDIndex(f.indexed, f.lockFree)
		f.ix.Store(ix)
	}
	return ix
}

// adopt turns the policy into its own frame allocator.
func (f *front) adopt() {
	ix := f.index()
	taken := make([]bool, f.capacity+1)
	f.self.eachResident(func(slot uint32, id PageID) {
		ix.insert(id, slot)
		taken[slot] = true
	})
	for slot := f.capacity; slot >= 0; slot-- {
		if !taken[slot] {
			ix.set(&ix.next[slot], f.free)
			f.free = uint32(slot) + 1
		}
	}
	f.byID = true
}

// admitted and vacated are the slot-keyed methods' reports of a page
// becoming resident in slot and of slot falling free.
func (f *front) admitted(slot uint32, id PageID) {
	if f.byID {
		f.ix.Load().insert(id, slot)
	}
}

func (f *front) vacated(slot uint32, id PageID) {
	if f.byID {
		ix := f.ix.Load()
		ix.remove(id, slot)
		ix.set(&ix.next[slot], f.free)
		f.free = slot + 1
	}
}

// find returns the slab index of id's node — its slot if id is resident, a
// history entry's index otherwise.
func (f *front) find(id PageID) (uint32, bool) {
	if ix := f.ix.Load(); ix != nil {
		if i, ok := ix.lookup(id); ok {
			return i, true
		}
	}
	if f.byID {
		return 0, false
	}
	return f.scan(id)
}

// scan is find for a resident page nobody has filed.
func (f *front) scan(id PageID) (slot uint32, ok bool) {
	f.self.eachResident(func(s uint32, rid PageID) {
		if rid == id {
			slot, ok = s, true
		}
	})
	return slot, ok
}

// Name implements Policy.
func (f *front) Name() string { return f.name }

// Cap implements Policy.
func (f *front) Cap() int { return f.capacity }

// CheckInvariants implements Checker.
func (f *front) CheckInvariants() error { return f.self.check(deepInvariants) }

// Contains implements Policy.
func (f *front) Contains(id PageID) bool {
	i, ok := f.find(id)
	return ok && f.self.ContainsSlot(i, id)
}

// Hit implements Policy.
func (f *front) Hit(id PageID) {
	if i, ok := f.find(id); ok {
		f.self.HitSlot(i, id)
	}
}

// Admit implements Policy. There is always a free slot to admit into: the
// policy has one more than its capacity, and gives up a page of its own
// accord when the capacity is reached.
func (f *front) Admit(id PageID) (victim PageID, evicted bool) {
	if !f.byID {
		f.adopt()
	}
	ix := f.ix.Load()
	if i, ok := ix.lookup(id); ok && int(i) <= f.capacity {
		panic("replacer: " + f.name + ": Admit of already-resident page")
	}
	slot := f.free - 1
	f.free = ix.next[slot]
	v, evicted := f.self.AdmitSlot(slot, id)
	return v.ID, evicted
}

// EvictSlot implements SlotPolicy: the policy's replacement rule, unless
// nothing is resident.
func (f *front) EvictSlot(claim func(Victim) bool) (Victim, bool) {
	if f.self.Len() == 0 {
		return Victim{}, false
	}
	return f.self.evict(claim)
}

// Evict implements Policy.
func (f *front) Evict() (PageID, bool) {
	v, ok := f.EvictSlot(nil)
	return v.ID, ok
}

// Remove implements Policy.
func (f *front) Remove(id PageID) {
	if i, ok := f.find(id); ok {
		f.self.RemoveSlot(i, id)
	}
}

// slab is a policy's metadata: one node per frame slot, the history entries
// and list furniture the algorithm needs above them, and the id-keyed front.
// The layout is
//
//	[0, capacity]          resident pages, by frame slot (one spare, so a full
//	                       policy can be handed the slot to admit into before
//	                       it has chosen the victim)
//	(capacity, indexed)    history entries and run headers, handed out by
//	                       alloc and returned by release
//	[indexed, len(nodes))  whatever else the policy asked for (LIRS: a second
//	                       pair of links per entry), then one sentinel a list
//
// and the array never moves, which is what lets Prefetch read it without
// the lock.
type slab struct {
	front
	nodes []node
	slots []node // nodes[:capacity+1]
	spare uint32 // first free history entry, chained through next; nilIdx when none
	lists []list // the policy's lists, in newList order
}

// init sizes the slab for a policy of the given capacity with up to history
// entries beyond its resident pages, extra nodes beyond those, and lists.
func (s *slab) init(self slotted, name string, capacity, history, extra, lists int) {
	if capacity <= 0 {
		panic("replacer: " + name + ": capacity must be positive")
	}
	s.self, s.name, s.capacity, s.indexed = self, name, capacity, capacity+1+history
	s.nodes = make([]node, s.indexed+extra+lists)
	s.slots = s.nodes[:capacity+1]
	s.lists = make([]list, 0, lists)
	for i := range s.nodes {
		s.nodes[i].prev, s.nodes[i].next = nilIdx, nilIdx
	}
	s.spare = nilIdx
	for i := s.indexed - 1; i > capacity; i-- {
		s.release(uint32(i))
	}
}

// newList returns the policy's next list, empty, for nodes that carry
// exactly the flags want among those that tell a policy's lists apart. Its
// sentinel is one of the slab's last nodes.
func (s *slab) newList(name string, want uint8) *list {
	root := uint32(len(s.nodes) - cap(s.lists) + len(s.lists))
	s.nodes[root].prev, s.nodes[root].next = root, root
	s.lists = append(s.lists, list{nodes: s.nodes, root: root, name: name, mask: fLive | fGhost | fHot | fScan, want: want})
	return &s.lists[len(s.lists)-1]
}

// alloc returns a free node from the history region, linked nowhere.
func (s *slab) alloc() uint32 {
	i := s.spare
	if i == nilIdx {
		panic("replacer: " + s.name + ": more history entries than the algorithm's bound")
	}
	s.spare = s.nodes[i].next
	s.nodes[i].next = nilIdx
	return i
}

// release clears a history-region node and returns it to alloc.
func (s *slab) release(i uint32) {
	s.nodes[i] = node{prev: nilIdx, next: s.spare}
	s.spare = i
}

// resident returns slot's node if it holds page id, resident; nil if the
// slot is free, past the frames, or holds another page — the stale-tag
// case, in which a slot-keyed call changes nothing.
func (s *slab) resident(slot uint32, id PageID) *node {
	if int(slot) >= len(s.slots) {
		return nil
	}
	if nd := &s.slots[slot]; nd.id == id && nd.flags&(fLive|fGhost) == fLive {
		return nd
	}
	return nil
}

// holder is resident for RemoveSlot, which front.Remove also hands the
// index of a history entry: the node at i if it holds page id at all.
func (s *slab) holder(i uint32, id PageID) *node {
	if int(i) >= s.indexed {
		return nil
	}
	if nd := &s.nodes[i]; nd.id == id && nd.flags&(fLive|fHeader) == fLive {
		return nd
	}
	return nil
}

// ContainsSlot implements SlotPolicy.
func (s *slab) ContainsSlot(slot uint32, id PageID) bool { return s.resident(slot, id) != nil }

// place makes page id resident in slot and returns its node, linked
// nowhere. Admitting over a resident page is a buffer-manager bug (two
// pages in one frame), like admitting a page twice.
func (s *slab) place(slot uint32, id PageID) *node {
	if int(slot) >= len(s.slots) {
		panic("replacer: " + s.name + ": Admit into a slot beyond the policy's capacity")
	}
	nd := &s.slots[slot]
	if nd.flags != 0 {
		panic("replacer: " + s.name + ": Admit into an occupied slot")
	}
	nd.id, nd.flags = id, fLive
	s.admitted(slot, id)
	return nd
}

// vacate frees slot, whose node is off every list, and names the page that
// held it.
func (s *slab) vacate(slot uint32) Victim {
	id := s.slots[slot].id
	s.slots[slot] = node{prev: nilIdx, next: nilIdx}
	s.vacated(slot, id)
	return Victim{ID: id, Slot: slot}
}

// offer hands the resident page in slot i to EvictSlot's claim; nil takes it.
func (s *slab) offer(claim func(Victim) bool, i uint32) bool {
	return claim == nil || claim(Victim{ID: s.nodes[i].id, Slot: i})
}

// claimIn offers the pages of lists to claim, list by list, each from its
// back (its front, fromFront), and returns the first taken and its list, nil
// if none is. LFU's run headers hold no page and are passed over.
func (s *slab) claimIn(claim func(Victim) bool, fromFront bool, lists ...*list) (*list, uint32) {
	for _, l := range lists {
		for i := l.root; ; {
			if fromFront {
				i = s.nodes[i].next
			} else {
				i = s.nodes[i].prev
			}
			if i == l.root {
				break
			}
			if !s.nodes[i].has(fHeader) && s.offer(claim, i) {
				return l, i
			}
		}
	}
	return nil, nilIdx
}

// ghost returns the history entry for id, if the policy remembers one.
func (s *slab) ghost(id PageID) (uint32, bool) {
	if ix := s.ix.Load(); ix != nil {
		if g, ok := ix.lookup(id); ok && int(g) > s.capacity {
			return g, true
		}
	}
	return 0, false
}

// toGhost turns the resident page in slot into a history entry: its node
// moves above the slots, metadata and list position with it, and the slot
// falls free. A node that is on no list stays on none.
func (s *slab) toGhost(slot uint32) (Victim, uint32) {
	g := s.alloc()
	nd := &s.nodes[g]
	*nd = s.slots[slot]
	nd.flags |= fGhost
	switch {
	case nd.next == slot: // a ring of one
		nd.prev, nd.next = g, g
	case nd.next != nilIdx:
		s.nodes[nd.prev].next, s.nodes[nd.next].prev = g, g
	}
	v := s.vacate(slot)
	s.index().insert(v.ID, g)
	return v, g
}

// dropGhost forgets history entry g, which is off every list.
func (s *slab) dropGhost(g uint32) {
	s.ix.Load().remove(s.nodes[g].id, g)
	s.release(g)
}

// eachResident implements slotted.
func (s *slab) eachResident(fn func(slot uint32, id PageID)) {
	for i := range s.slots {
		if nd := &s.slots[i]; nd.flags&(fLive|fGhost) == fLive {
			fn(uint32(i), nd.id)
		}
	}
}

// touch is the prefetch of one node: it reads the fields a commit would
// access — the page's own metadata and its neighbours on the list ("the
// forward and/or backward pointers involved in the movement of accessed
// pages", Section III-B) — and returns a throwaway checksum so the compiler
// cannot drop the loads. The reads are unsynchronized on purpose: they only
// warm the cache, decide nothing, and the array they index never moves.
func (s *slab) touch(i uint32) uint64 {
	if int(i) >= len(s.nodes) {
		return 0
	}
	nd := &s.nodes[i]
	x := uint64(nd.id) ^ uint64(nd.tick) ^ uint64(nd.count) ^ uint64(nd.level) ^ uint64(nd.flags)
	if p := int(nd.prev); p < len(s.nodes) {
		x ^= uint64(s.nodes[p].id)
	}
	if n := int(nd.next); n < len(s.nodes) {
		x ^= uint64(s.nodes[n].id)
	}
	return x
}

// walks reports whether this build makes the prefetch walk. The walk races
// the commit path by design, and making it race-free is not to be had for
// the price: the race detector reports an atomic load against a plain store
// as it would a plain load, and atomic stores under the policy lock would
// cost every commit more than the walk saves. So instrumented builds skip
// it (race_on.go), and this is the one place that says so.
func walks() bool { return !raceEnabled }

// PrefetchSlots implements SlotPrefetcher.
func (s *slab) PrefetchSlots(slots []uint32) {
	if !walks() {
		return
	}
	var sink uint64
	for _, slot := range slots {
		sink ^= s.touch(slot)
	}
	prefetchSink = sink
}

// Prefetch implements Prefetcher: the same walk for a caller that has ids.
// Pages the index does not file — every page of a policy driven by slot —
// are skipped.
func (s *slab) Prefetch(ids []PageID) {
	ix := s.ix.Load()
	if ix == nil || !walks() {
		return
	}
	var sink uint64
	for _, id := range ids {
		if i, ok := ix.lookup(id); ok {
			sink ^= s.touch(i)
		}
	}
	prefetchSink = sink
}

// prefetchSink receives the xor of the prefetched fields so the compiler
// cannot eliminate the reads. It carries no meaning.
var prefetchSink uint64
