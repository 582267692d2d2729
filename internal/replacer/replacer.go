// Package replacer implements the buffer replacement algorithms evaluated or
// referenced by the BP-Wrapper paper: the clock-based approximation used by
// stock PostgreSQL 8.2 (CLOCK, plus the generalized GCLOCK), the advanced
// algorithms the paper wraps (2Q, LIRS, MQ), the classical baselines (LRU,
// FIFO, LFU), and the clock-based approximations of the advanced algorithms
// the paper contrasts against (CLOCK-Pro for LIRS, CAR for ARC), plus ARC
// itself.
//
// A Policy tracks the resident-page set of a fixed-capacity buffer and
// decides which resident page to evict when a new page must be admitted.
//
// # Concurrency contract
//
// Policies are deliberately NOT safe for concurrent use. The whole point of
// the paper is how callers serialize access to a policy's data structure:
//
//   - a hit-ratio simulation drives the policy single-threaded, unlocked;
//   - the pg2Q-style baseline guards every call with one global lock;
//   - BP-Wrapper (package core) batches hit records per session and commits
//     them under the lock in groups.
//
// The exceptions are CLOCK and GCLOCK: their Hit methods are atomic
// reference-bit/counter updates and are safe to call without any lock,
// exactly like PostgreSQL's clock sweep (this is why the paper treats the
// clock system as the scalability optimum). They advertise this via the
// LockFreeHit interface. All their other methods still require
// serialization.
package replacer

import "bpwrapper/internal/page"

// PageID aliases page.PageID so most policy code can stay self-contained.
type PageID = page.PageID

// Policy is a buffer replacement algorithm over a fixed-capacity page set.
//
// The caller (the buffer manager) owns frame allocation; the policy only
// decides *which* resident page to give up. The protocol is:
//
//   - Hit(id): id is resident and was just accessed.
//   - Admit(id): id missed and is being made resident. If the buffer is
//     full the policy evicts a victim and returns it.
//   - Remove(id): id was invalidated (e.g. its table was dropped) and is no
//     longer resident.
//
// Implementations must tolerate Hit on a non-resident page by ignoring it:
// with BP-Wrapper, a queued hit may be committed after the page was evicted
// (the buffer manager filters most of these via BufferTag validation, but
// the policy must stay consistent regardless).
type Policy interface {
	// Name returns a short identifier, e.g. "lru", "2q", "lirs".
	Name() string

	// Cap returns the configured capacity (maximum resident pages).
	Cap() int

	// Len returns the current number of resident pages.
	Len() int

	// Contains reports whether id is currently resident.
	Contains(id PageID) bool

	// Hit records an access to a resident page. Non-resident ids are
	// ignored.
	Hit(id PageID)

	// Admit makes id resident after a miss, evicting a victim if the
	// policy is at capacity. It returns the victim and whether one was
	// evicted. Admit never returns id itself. Admitting an already-resident
	// page panics: it indicates a buffer-manager bug (two loaders for one
	// page), not a recoverable condition.
	Admit(id PageID) (victim PageID, evicted bool)

	// Evict removes and returns one resident page following the policy's
	// replacement rule, without admitting anything. The boolean is false
	// iff nothing is resident. A caller that must pass pinned pages over
	// evicts through SlotPolicy.EvictSlot instead.
	Evict() (PageID, bool)

	// Remove deletes id from the resident set (and any history the policy
	// chooses to also drop). Non-resident ids are ignored.
	Remove(id PageID)
}

// Victim is a page a policy gave up through a slot-keyed call, and the frame
// slot it occupied.
type Victim struct {
	ID   PageID
	Slot uint32
}

// SlotPolicy is the optional slot-keyed face of a Policy, for a caller that
// owns the frames — the buffer pool, which probes for it as it probes for
// Prefetcher. Such a caller names each resident page by the index of the
// frame it occupies as well as by id, and the policy keeps the page's
// metadata at that index (as PostgreSQL keeps it in the buffer descriptor),
// so no call has to look anything up. Slots range over [0, Cap()]; a slot
// holds at most one resident page and a resident page exactly one slot.
//
// Every policy in this package implements it, and implements the id-keyed
// Policy methods as a lookup in front of these. A policy that does not is
// driven by id (BySlot), at the price of that lookup under the lock.
type SlotPolicy interface {
	Policy

	// ContainsSlot reports whether id is resident in slot.
	ContainsSlot(slot uint32, id PageID) bool

	// HitSlot is Hit for the page in slot. If the slot is free or holds
	// another page — the record is older than the frame's present tenant —
	// it changes nothing.
	HitSlot(slot uint32, id PageID)

	// AdmitSlot is Admit into a free slot, giving up no page below capacity.
	// Admitting into an occupied slot panics, as admitting a resident page does.
	AdmitSlot(slot uint32, id PageID) (victim Victim, evicted bool)

	// EvictSlot walks the policy's eviction order, offering each candidate
	// to claim, and evicts the first one claim takes, naming the slot it
	// leaves free. A refused candidate is skipped where it stands: its rank,
	// list position, reference bit and frequency stay as they were. After a
	// full pass finds nothing claimable it returns (Victim{}, false), every
	// page still resident. A nil claim takes every candidate: EvictSlot(nil)
	// is Evict. claim must not call back into the policy.
	EvictSlot(claim func(Victim) bool) (Victim, bool)

	// RemoveSlot is Remove for the page in slot; like HitSlot it ignores a
	// slot that does not hold id.
	RemoveSlot(slot uint32, id PageID)
}

// Access is one recorded page access: the page, and the buffer tag of the
// frame it was recorded against, whose Slot names the frame.
type Access struct {
	ID  PageID
	Tag page.BufferTag
}

// SlotBatcher is the optional batch form of SlotPolicy.HitSlot, probed for
// as SlotPrefetcher is: HitSlots is HitSlot(a.Tag.Slot, a.ID) for each access
// of batch, in order. Every policy here implements it as a loop over its own
// HitSlot, so the call is static. A type that embeds a policy and overrides
// HitSlot must override HitSlots too, or it inherits a loop over the
// embedded HitSlot; CheckPolicy catches that.
type SlotBatcher interface {
	HitSlots(batch []Access)
}

// BySlot returns p's slot-keyed face: p itself when it has one, otherwise
// an adapter that drives p by id and remembers which slot each resident
// page was admitted into.
func BySlot(p Policy) SlotPolicy {
	if sp, ok := p.(SlotPolicy); ok {
		return sp
	}
	return &bySlot{Policy: p, slots: make(map[PageID]uint32)}
}

// bySlot keeps the pairing both ways: by id, to name the slot a victim
// leaves, and by slot, so that a hit — every committed access — is checked
// against its slot's tenant with an array index rather than a map lookup.
type bySlot struct {
	Policy
	slots map[PageID]uint32
	ids   []PageID // by slot; grown to the highest slot admitted into
}

func (a *bySlot) ContainsSlot(slot uint32, id PageID) bool {
	s, ok := a.slots[id]
	return ok && s == slot
}

func (a *bySlot) HitSlot(slot uint32, id PageID) {
	if int(slot) < len(a.ids) && a.ids[slot] == id {
		a.Hit(id)
	}
}

func (a *bySlot) AdmitSlot(slot uint32, id PageID) (Victim, bool) {
	v, evicted := a.Admit(id)
	for int(slot) >= len(a.ids) {
		a.ids = append(a.ids, 0)
	}
	a.slots[id], a.ids[slot] = slot, id
	return a.gaveUp(v, evicted), evicted
}

// EvictSlot cannot walk a policy it sees only by id, so it exchanges: while
// claim refuses the victim it evicts the next one, then admits the refused
// page again (in that order: LFU and LRU-2 rank a page just met lowest),
// which resets its rank. It gives up after as many offers as there were
// pages. The slot pairing goes only with a page claim took.
func (a *bySlot) EvictSlot(claim func(Victim) bool) (Victim, bool) {
	id, ok := a.Evict()
	for tries := a.Len(); ok; tries-- {
		refused := id
		if claim == nil || claim(Victim{ID: id, Slot: a.slots[id]}) {
			return a.gaveUp(id, true), true
		}
		if tries > 0 {
			id, ok = a.Evict()
		} else {
			ok = false
		}
		a.Admit(refused)
	}
	return Victim{}, false
}

func (a *bySlot) RemoveSlot(slot uint32, id PageID) {
	if a.ContainsSlot(slot, id) {
		a.Remove(id)
		a.gaveUp(id, true)
	}
}

// gaveUp forgets the pairing of a page that is no longer resident.
func (a *bySlot) gaveUp(id PageID, ok bool) Victim {
	if !ok {
		return Victim{}
	}
	v := Victim{ID: id, Slot: a.slots[id]}
	delete(a.slots, id)
	a.ids[v.Slot] = 0
	return v
}

// Prefetcher is implemented by policies that support BP-Wrapper's
// prefetching technique (Section III-B): Prefetch performs a read-only walk
// of the metadata entries for the given pages so the data lands in the
// processor cache before the lock is acquired. It never mutates policy
// state and is safe to call without holding the policy lock; stale reads
// are harmless.
type Prefetcher interface {
	Prefetch(ids []PageID)
}

// SlotPrefetcher is Prefetcher for a caller that drives the policy by slot:
// the walk reads the metadata at the given slots.
type SlotPrefetcher interface {
	PrefetchSlots(slots []uint32)
}

// LockFreeHit is implemented by policies whose Hit method is safe to call
// concurrently, without the policy lock. The buffer manager uses it to
// reproduce the stock-PostgreSQL behaviour where clock reference-bit
// updates bypass the replacement lock entirely.
type LockFreeHit interface {
	// HitIsLockFree reports whether Hit may be called without external
	// synchronization.
	HitIsLockFree() bool
}

// HitNeedsLock reports whether calls to p.Hit must be serialized with the
// policy lock. It is the query the buffer manager actually asks.
func HitNeedsLock(p Policy) bool {
	lf, ok := p.(LockFreeHit)
	return !ok || !lf.HitIsLockFree()
}

// Factory constructs a policy of the given capacity. The bench harness and
// tests use factories to sweep algorithms uniformly.
type Factory func(capacity int) Policy

// Factories returns the constructors for every algorithm in this package,
// keyed by Name(). The map is freshly allocated on each call so callers may
// modify it.
func Factories() map[string]Factory {
	return map[string]Factory{
		"lru":      func(c int) Policy { return NewLRU(c) },
		"fifo":     func(c int) Policy { return NewFIFO(c) },
		"lfu":      func(c int) Policy { return NewLFU(c) },
		"lru2":     func(c int) Policy { return NewLRU2(c) },
		"clock":    func(c int) Policy { return NewClock(c) },
		"gclock":   func(c int) Policy { return NewGClock(c, 5) },
		"2q":       func(c int) Policy { return NewTwoQ(c) },
		"lirs":     func(c int) Policy { return NewLIRS(c) },
		"mq":       func(c int) Policy { return NewMQ(c) },
		"seq":      func(c int) Policy { return NewSEQ(c) },
		"arc":      func(c int) Policy { return NewARC(c) },
		"car":      func(c int) Policy { return NewCAR(c) },
		"clockpro": func(c int) Policy { return NewClockPro(c) },
	}
}

// Names returns the algorithm names in Factories in sorted order.
func Names() []string {
	return []string{"2q", "arc", "car", "clock", "clockpro", "fifo", "gclock", "lfu", "lirs", "lru", "lru2", "mq", "seq"}
}

// New constructs a policy by name, or returns false if the name is unknown.
func New(name string, capacity int) (Policy, bool) {
	f, ok := Factories()[name]
	if !ok {
		return nil, false
	}
	return f(capacity), true
}
