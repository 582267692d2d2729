package replacer

import (
	"fmt"
	"math/rand"
	"slices"

	"bpwrapper/internal/page"
)

// TB is the part of *testing.T CheckPolicy reports through.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
}

// drive is a policy as a buffer manager drives it: the four calls that
// change its state, keyed by id or by slot. The conformance run keeps the
// resident set itself, as a page table does, so that both drives take the
// same decisions from the same trace.
type drive interface {
	hit(id PageID)
	admit(id PageID) (victim PageID, evicted bool)
	evict() (PageID, bool)
	remove(id PageID)
}

// idDrive is the portable contract: Hit(id), Admit(id), Evict(), Remove(id).
type idDrive struct{ p Policy }

func (d idDrive) hit(id PageID)                  { d.p.Hit(id) }
func (d idDrive) admit(id PageID) (PageID, bool) { return d.p.Admit(id) }
func (d idDrive) evict() (PageID, bool)          { return d.p.Evict() }
func (d idDrive) remove(id PageID)               { d.p.Remove(id) }

// slotDrive is the buffer pool's: every call names the frame slot the page
// occupies, and the slots come from a toy frame allocator — a free list in
// scrambled order, so that a policy whose decisions depended on which slot a
// page got would show it. It has one frame more than the policy's capacity,
// as the slot contract allows, so a full policy is handed the slot to admit
// into and picks its victim itself, as it does by id. With a batcher it hands
// hits over as the BP-Wrapper core commits them: queued, then one HitSlots
// ahead of the next call that changes what is resident. Its evictions go
// through EvictSlot with claim, nil unless a run sets one.
type slotDrive struct {
	p       SlotPolicy
	table   map[PageID]uint32
	free    []uint32
	batcher SlotBatcher // nil: one HitSlot a hit, at once
	queued  []Access
	claim   func(Victim) bool
}

func newSlotDrive(p SlotPolicy, batcher SlotBatcher) *slotDrive {
	d := &slotDrive{p: p, table: make(map[PageID]uint32), batcher: batcher}
	for s := 0; s <= p.Cap(); s++ {
		d.free = append(d.free, uint32(s))
	}
	rand.New(rand.NewSource(19)).Shuffle(len(d.free), func(i, j int) { d.free[i], d.free[j] = d.free[j], d.free[i] })
	return d
}

func (d *slotDrive) gaveUp(v Victim, ok bool) (PageID, bool) {
	if ok {
		if slot, resident := d.table[v.ID]; resident && slot != v.Slot {
			panic(fmt.Sprintf("replacer: %s gave up %v in slot %d, the page is in slot %d", d.p.Name(), v.ID, v.Slot, slot))
		}
		delete(d.table, v.ID)
		d.free = append(d.free, v.Slot)
	}
	return v.ID, ok
}

func (d *slotDrive) hit(id PageID) { d.hitSlot(d.table[id], id) }

// hitSlot is a hit on id recorded against slot.
func (d *slotDrive) hitSlot(slot uint32, id PageID) {
	if d.batcher == nil {
		d.p.HitSlot(slot, id)
		return
	}
	d.queued = append(d.queued, Access{ID: id, Tag: page.BufferTag{Page: id, Slot: slot}})
}

// commit hands the queued hits over.
func (d *slotDrive) commit() {
	if len(d.queued) > 0 {
		d.batcher.HitSlots(d.queued)
		d.queued = d.queued[:0]
	}
}

func (d *slotDrive) admit(id PageID) (PageID, bool) {
	d.commit()
	slot := d.free[len(d.free)-1]
	d.free = d.free[:len(d.free)-1]
	d.table[id] = slot
	return d.gaveUp(d.p.AdmitSlot(slot, id))
}

func (d *slotDrive) evict() (PageID, bool) {
	d.commit()
	return d.gaveUp(d.p.EvictSlot(d.claim))
}

func (d *slotDrive) remove(id PageID) {
	d.commit()
	slot := d.table[id]
	d.p.RemoveSlot(slot, id)
	delete(d.table, id)
	d.free = append(d.free, slot)
}

// The drives a conformance run can take a policy through. claimDriven's
// claim takes every candidate it is offered, so the policy must give up what
// EvictSlot(nil) does.
func idDriven(p Policy) drive    { return idDrive{p} }
func slotDriven(p Policy) drive  { return newSlotDrive(p.(SlotPolicy), nil) }
func batchDriven(p Policy) drive { return newSlotDrive(p.(SlotPolicy), p.(SlotBatcher)) }
func claimDriven(p Policy) drive {
	d := newSlotDrive(p.(SlotPolicy), nil)
	d.claim = func(Victim) bool { return true }
	return d
}

// conform replays one seeded stream of accesses through p, an Evict three
// steps in a hundred and a Remove of a recent page another three, holding p
// to the contract at every step, and returns every page p gave up, in order,
// followed by what a final drain by Evict yields. With noise the run also
// makes the calls that must change nothing — Prefetch, a Hit, Remove and
// slot-keyed ContainsSlot of pages that are not resident, a hit and a
// RemoveSlot through the wrong slot — so that a policy is held to that by
// comparing runs.
func conform(t TB, p Policy, driven func(Policy) drive, noise bool, capacity int, seed int64) []PageID {
	t.Helper()
	d := driven(p)
	sp, _ := p.(SlotPolicy)
	if v, ok := d.evict(); ok {
		t.Fatalf("%s: Evict on an empty policy returned %v", p.Name(), v)
	}
	resident := make(map[PageID]bool, capacity)
	var gaveUp, recent []PageID
	out := func(v PageID, admitted PageID) {
		if !resident[v] || v == admitted {
			t.Fatalf("%s: gave up %v, which is not resident (admitting %v)", p.Name(), v, admitted)
		}
		delete(resident, v)
		gaveUp = append(gaveUp, v)
	}
	r, nr := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed+1))
	for step := 0; step < 400*capacity && step < 20000; step++ {
		id := conformPage(r, 0, 4*capacity)
		if noise {
			absent := conformPage(nr, 8*capacity, capacity)
			p.Hit(absent)
			p.Remove(absent)
			if pf, ok := p.(Prefetcher); ok {
				pf.Prefetch([]PageID{id, absent})
			}
			if sd, ok := d.(*slotDrive); ok {
				wrong := sd.table[id] + 1
				sd.hitSlot(wrong, id)
				sp.RemoveSlot(wrong, id)
				if sp.ContainsSlot(wrong, id) {
					t.Fatalf("%s: ContainsSlot finds %v in a slot it is not in", p.Name(), id)
				}
			}
		}
		if p.Contains(id) != resident[id] {
			t.Fatalf("%s: step %d: Contains(%v) = %v", p.Name(), step, id, !resident[id])
		}
		if resident[id] {
			d.hit(id)
		} else {
			if v, ok := d.admit(id); ok {
				if _, bySlot := d.(*slotDrive); bySlot && len(resident) < capacity {
					t.Fatalf("%s: step %d: Admit of %v evicted %v below capacity, with %d of %d pages resident", p.Name(), step, id, v, len(resident), capacity)
				}
				out(v, id)
			}
			resident[id] = true
			recent = append(recent, id)
		}
		switch k := r.Intn(100); {
		case k < 3:
			if v, ok := d.evict(); ok {
				out(v, 0)
			} else if len(resident) != 0 {
				t.Fatalf("%s: step %d: Evict found nothing with %d pages resident", p.Name(), step, len(resident))
			}
		case k < 6:
			if old := recent[r.Intn(len(recent))]; resident[old] {
				d.remove(old)
				delete(resident, old)
			}
		}
		if p.Len() != len(resident) || p.Len() > p.Cap() {
			t.Fatalf("%s: step %d: Len %d with %d pages resident, Cap %d", p.Name(), step, p.Len(), len(resident), p.Cap())
		}
	}
	for range resident {
		v, ok := d.evict()
		if !ok {
			t.Fatalf("%s: Evict found nothing with pages resident", p.Name())
		}
		gaveUp = append(gaveUp, v)
	}
	return gaveUp
}

// conformPage draws one of n pages, from the from'th of a table, from r.
func conformPage(r *rand.Rand, from, n int) PageID {
	return PageID(1<<44 | (uint64(from) + r.Uint64()%uint64(n)))
}

// conformClaim holds EvictSlot to its claim. A seeded stream drives p by
// slot, and every tenth step asks for a victim while claim refuses about a
// quarter of the resident pages, or one time in eight all of them. Every
// candidate offered must be resident in its slot, the victim one claim took,
// and every other page must stay resident in its slot: with nothing
// claimable, the answer is (Victim{}, false) and Len does not move.
func conformClaim(t TB, p SlotPolicy, capacity int, seed int64) {
	t.Helper()
	d, r := newSlotDrive(p, nil), rand.New(rand.NewSource(seed))
	var salt uint64 // 0: claim refuses every page
	var taken PageID
	refuses := func(id PageID) bool { return salt == 0 || (uint64(id)*0x9e3779b97f4a7c15+salt)>>62 == 0 }
	d.claim = func(v Victim) bool {
		if slot, ok := d.table[v.ID]; !ok || slot != v.Slot || !p.ContainsSlot(v.Slot, v.ID) {
			t.Fatalf("%s: EvictSlot offered %v, which is not resident in slot %d", p.Name(), v.ID, v.Slot)
		}
		taken = v.ID
		return !refuses(v.ID)
	}
	for step := 0; step < 100*capacity && step < 5000; step++ {
		if id := conformPage(r, 0, 4*capacity); p.ContainsSlot(d.table[id], id) {
			d.hit(id)
		} else {
			d.admit(id)
		}
		if r.Intn(10) != 0 {
			continue
		}
		if salt = r.Uint64(); r.Intn(8) == 0 {
			salt = 0
		}
		claimable := 0
		for id := range d.table {
			if !refuses(id) {
				claimable++
			}
		}
		if v, ok := d.evict(); ok != (claimable > 0) || ok && (v != taken || refuses(v)) || p.Len() != len(d.table) {
			t.Fatalf("%s: step %d: EvictSlot gave up %v (%v) with %d pages claimable, and left %d of %d", p.Name(), step, v, ok, claimable, p.Len(), len(d.table))
		}
		for id, slot := range d.table {
			if !p.ContainsSlot(slot, id) {
				t.Fatalf("%s: step %d: %v, refused, is no longer resident in slot %d", p.Name(), step, id, slot)
			}
		}
	}
}

// CheckPolicy holds a replacement algorithm to the Policy contract — and to
// SlotPolicy's, if it implements it — at several capacities: Len never exceeds
// Cap and always agrees with what was admitted and given up; victims are
// resident, never the page admitted, and AdmitSlot gives up none below
// capacity; Evict on an empty policy is (_, false); admitting a resident page
// panics; a Hit or Remove of a page that is not resident changes nothing, nor
// does Prefetch, nor a slot-keyed call through a slot that holds another page
// (the stale tag); a page removed and admitted again is treated as one never
// seen; the policy gives up the same pages in the same order whether it is
// driven by id, by slot, by slot through a claim that takes every candidate, or
// — if it implements SlotBatcher — by slot with its hits handed over in
// batches; and EvictSlot keeps to its claim (conformClaim). "Changes nothing"
// and "the same" are checked by comparing whole runs, so the algorithm must be
// deterministic.
func CheckPolicy(t TB, factory Factory) {
	t.Helper()
	for _, capacity := range []int{1, 3, 16, 64} {
		seed := int64(capacity)
		plain := conform(t, factory(capacity), idDriven, false, capacity, seed)
		compare := func(what string, got []PageID) {
			t.Helper()
			if !slices.Equal(plain, got) {
				t.Errorf("%s at capacity %d: gives up different pages %s", factory(capacity).Name(), capacity, what)
			}
		}
		compare("once calls that should change nothing are made", conform(t, factory(capacity), idDriven, true, capacity, seed))

		// The page the stream admits first, so that a policy that watches
		// for sequences of misses sees the same ones in both runs.
		again, stranger := factory(capacity), conformPage(rand.New(rand.NewSource(seed)), 0, 4*capacity)
		again.Admit(stranger)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Admit of a resident page did not panic", again.Name())
				}
			}()
			again.Admit(stranger)
		}()
		again.Remove(stranger)
		compare("after a page was admitted and removed", conform(t, again, idDriven, false, capacity, seed))

		if _, ok := again.(SlotPolicy); ok {
			compare("when driven by slot", conform(t, factory(capacity), slotDriven, false, capacity, seed))
			compare("when driven by slot, with stale slots", conform(t, factory(capacity), slotDriven, true, capacity, seed))
			compare("when a claim takes every candidate", conform(t, factory(capacity), claimDriven, false, capacity, seed))
			if _, ok := again.(SlotBatcher); ok {
				compare("when its hits come in batches", conform(t, factory(capacity), batchDriven, true, capacity, seed))
			}
			conformClaim(t, factory(capacity).(SlotPolicy), capacity, seed)
		}
	}
}
