package replacer

import (
	"testing"

	"bpwrapper/internal/page"
)

// TestPolicyOpsDoNotAllocate holds every policy, once full — the state a
// buffer pool keeps it in — to allocating nothing: not in any slot-keyed
// method, which the pool calls under the policy lock with everybody else
// waiting, and not in the id-keyed front of them either, index lookups and
// slot hand-outs included. A policy's metadata is sized at construction;
// the two things built later (the id index, LRU-2's heap) reach their
// steady size during the warm-up.
func TestPolicyOpsDoNotAllocate(t *testing.T) {
	const capacity = 64
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			// Warm up through twenty capacities of fresh pages with hits in
			// between: ghost queues fill, LRU-2's heap reaches its size.
			next := uint64(1)
			fresh := func() PageID { next++; return tid(next) }
			measure := func(what string, fn func()) {
				t.Helper()
				if n := testing.AllocsPerRun(50*capacity, fn); n != 0 {
					t.Errorf("%s allocates %.2f times per call, want 0", what, n)
				}
			}

			byID, _ := New(name, capacity)
			for i := 0; i < 20*capacity; i++ {
				id := fresh()
				byID.Admit(id)
				byID.Hit(id)
			}
			if byID.Len() != byID.Cap() {
				t.Fatalf("policy holds %d of %d pages after warm-up", byID.Len(), byID.Cap())
			}
			last := tid(next)
			measure("Hit", func() { byID.Hit(last) })
			measure("Contains", func() { byID.Contains(last) })
			measure("Admit at capacity", func() { byID.Admit(fresh()) })
			measure("Evict+Admit", func() { byID.Evict(); byID.Admit(fresh()) })
			measure("Remove+Admit", func() {
				id := fresh()
				byID.Admit(id)
				byID.Remove(id)
			})
			ids := []PageID{last, tid(next - 1), tid(next - 2)}
			measure("Prefetch", func() { byID.(Prefetcher).Prefetch(ids) })

			d := newSlotDrive(mustSlotPolicy(t, name, capacity), nil)
			for i := 0; i < 20*capacity; i++ {
				id := fresh()
				d.admit(id)
				d.hit(id)
			}
			last = tid(next)
			measure("HitSlot", func() { d.hit(last) })
			var batch []Access
			for _, id := range []PageID{last, tid(next - 1), tid(next - 2)} {
				batch = append(batch, Access{ID: id, Tag: page.BufferTag{Page: id, Slot: d.table[id]}})
			}
			measure("HitSlots", func() { d.p.(SlotBatcher).HitSlots(batch) })
			measure("ContainsSlot", func() { d.p.ContainsSlot(d.table[last], last) })
			measure("AdmitSlot at capacity", func() { d.admit(fresh()) })
			measure("EvictSlot+AdmitSlot", func() { d.evict(); d.admit(fresh()) })
			offers := 0
			d.claim = func(Victim) bool { offers++; return offers%2 == 0 }
			measure("EvictSlot past a refusal+AdmitSlot", func() { offers = 0; d.evict(); d.admit(fresh()) })
			d.claim = func(Victim) bool { return false }
			measure("EvictSlot refusing every page", func() { d.evict() })
			d.claim = nil
			measure("RemoveSlot+AdmitSlot", func() {
				id := fresh()
				d.admit(id)
				d.remove(id)
			})
			slots := []uint32{0, 1, uint32(capacity)}
			measure("PrefetchSlots", func() { d.p.(SlotPrefetcher).PrefetchSlots(slots) })
		})
	}
}

func mustSlotPolicy(t *testing.T, name string, capacity int) SlotPolicy {
	t.Helper()
	p, _ := New(name, capacity)
	sp, ok := p.(SlotPolicy)
	if !ok {
		t.Fatalf("%s has no slot-keyed methods", name)
	}
	return sp
}
