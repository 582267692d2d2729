package replacer

import (
	"math/bits"
	"sync/atomic"
)

// touchable is the contract between prefetchIndex and the per-policy
// metadata entry types: *T's touch performs the read-only field walk that
// constitutes the prefetch, returning a throwaway checksum so the compiler
// cannot eliminate the loads.
type touchable[T any] interface {
	*T
	touch() uint64
}

// prefetchIndex gives a policy a lock-free view of its page→entry mapping
// so that BP-Wrapper's prefetching technique (Section III-B) can be
// implemented safely in Go.
//
// The paper's prefetch reads the replacement algorithm's shared metadata
// *without holding the lock*; on hardware this is safe because the reads
// only warm the cache and coherence invalidates stale lines. In Go the
// policy's primary map cannot be read concurrently with writes (the runtime
// aborts on concurrent map access), so each prefetch-capable policy
// additionally maintains this side index: a fixed direct-mapped table of
// atomic (id, entry) slots, sized once from the policy's capacity, written
// under the policy lock on admit/evict/remove and read lock-free by
// Prefetch.
//
// The table is lossy by design. Two ids that hash to one slot overwrite
// each other, so a resident page may have no slot (its walk is skipped), and
// the two words of a slot are stored separately, so a reader may pair one
// page's id with another's entry (it warms the wrong lines). Neither can
// matter: the walk decides nothing. What the table buys is a note and a
// forget that are two stores each and never allocate, and a lookup that is
// a multiply and two loads.
//
// The entry *field* reads in the walk are intentionally unsynchronized —
// that racy read is the prefetch. The values are never used for decisions,
// only summed into a sink to defeat dead-code elimination. Under the race
// detector the field walk is skipped (see race_on.go) so instrumented test
// runs stay clean while regular builds keep the real behaviour.
type prefetchIndex[T any, P touchable[T]] struct {
	slots []prefetchSlot[T]
	shift uint // 64 - log2(len(slots))
}

type prefetchSlot[T any] struct {
	id atomic.Uint64
	e  atomic.Pointer[T]
}

// newPrefetchIndex sizes the table for a policy of the given capacity: the
// power of two in [2·capacity, 4·capacity), which at a full policy keeps
// four residents in five indexed.
func newPrefetchIndex[T any, P touchable[T]](capacity int) prefetchIndex[T, P] {
	lg := uint(bits.Len(uint(2*capacity - 1)))
	return prefetchIndex[T, P]{slots: make([]prefetchSlot[T], 1<<lg), shift: 64 - lg}
}

// slot returns id's only possible slot (Fibonacci hashing: page ids are
// dense block numbers under a table prefix, which the multiply scatters).
func (px *prefetchIndex[T, P]) slot(id PageID) *prefetchSlot[T] {
	return &px.slots[uint64(id)*0x9e3779b97f4a7c15>>px.shift]
}

// note publishes id→entry, displacing whatever page held the slot. Callers
// must hold the policy lock.
func (px *prefetchIndex[T, P]) note(id PageID, e P) {
	s := px.slot(id)
	s.id.Store(uint64(id))
	s.e.Store((*T)(e))
}

// forget removes id if it still holds its slot. Callers must hold the
// policy lock.
func (px *prefetchIndex[T, P]) forget(id PageID) {
	if s := px.slot(id); s.id.Load() == uint64(id) {
		s.e.Store(nil)
	}
}

// Prefetch walks the metadata for ids read-only, loading the entry fields a
// subsequent commit would touch (list links and per-page flags) into the
// processor cache. It is safe to call concurrently with policy mutation;
// stale or missing entries are harmless.
func (px *prefetchIndex[T, P]) Prefetch(ids []PageID) {
	var sink uint64
	for _, id := range ids {
		s := px.slot(id)
		if s.id.Load() != uint64(id) {
			continue
		}
		// Resolving the pointer is synchronized; the field walk is a
		// deliberate data race, so instrumented builds stop here.
		if e := s.e.Load(); e != nil && !raceEnabled {
			sink ^= P(e).touch()
		}
	}
	if !raceEnabled {
		prefetchSink = sink
	}
}

// prefetchSink receives the xor of all prefetched fields so the compiler
// cannot eliminate the reads. It carries no meaning.
var prefetchSink uint64

// touch implements touchable for the shared node type: it reads the fields
// a commit would access — the page's own metadata and the neighbouring link
// pointers ("the forward and/or backward pointers involved in the movement
// of accessed pages", Section III-B).
func (nd *node) touch() uint64 {
	s := uint64(nd.id) ^ uint64(nd.count) ^ uint64(nd.level) ^ uint64(nd.tick)
	if nd.ref {
		s ^= 1
	}
	if nd.hot {
		s ^= 2
	}
	if nd.ghost {
		s ^= 4
	}
	if p := nd.prev; p != nil {
		s ^= uint64(p.id)
	}
	if n := nd.next; n != nil {
		s ^= uint64(n.id)
	}
	return s
}
