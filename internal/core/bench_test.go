package core

import (
	"math/rand"
	"testing"

	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
)

// BenchmarkCommitBatch times the path a buffer pool's resident hits take
// through the wrapper: a slotted 2Q wrapper whose validator checks every
// entry against a table of frame tags, as a pool's does, committing in
// batches of 32 — one queue append a hit, and per batch one lock
// acquisition, one Validate call and one HitSlots call. ns/op is per hit.
// (BenchmarkWrapperHitObs drives the id-keyed wrapper, unvalidated.)
func BenchmarkCommitBatch(b *testing.B) {
	const frames, batch = 1024, 32
	pol := replacer.NewTwoQ(frames)

	// Warm up the way a pool would: admit each miss into the slot the last
	// victim left, cycling over half as many pages again as there are
	// frames, so that ghost hits move most residents into Am, where a hit
	// is a list splice.
	slotOf := make(map[page.PageID]uint32, frames)
	spare := uint32(0)
	for round := 0; round < 4; round++ {
		for i := uint64(0); i < frames*3/2; i++ {
			id := pid(i)
			if _, ok := slotOf[id]; ok {
				continue
			}
			slotOf[id] = spare
			if v, evicted := pol.AdmitSlot(spare, id); evicted {
				delete(slotOf, v.ID)
				spare = v.Slot
			} else {
				spare++
			}
		}
	}
	tags := make([]page.BufferTag, frames+1) // by slot: the frame headers
	for id, slot := range slotOf {
		tags[slot] = page.BufferTag{Page: id, Gen: 1, Slot: slot}
	}
	var hot []page.BufferTag // the residents, in a seeded order
	for _, t := range tags {
		if t.Page.Valid() {
			hot = append(hot, t)
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(hot), func(i, j int) { hot[i], hot[j] = hot[j], hot[i] })

	w := NewSlotted(pol, Config{
		Batching: true, QueueSize: 2 * batch, BatchThreshold: batch,
		Validate: func(batch []Entry) []Entry {
			live := batch[:0]
			for _, e := range batch {
				if int(e.Tag.Slot) < len(tags) && tags[e.Tag.Slot] == e.Tag {
					live = append(live, e)
				}
			}
			return live
		},
	})
	s := w.NewSession()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := hot[i%len(hot)]
		s.Hit(t.Page, t)
	}
	b.StopTimer()
	s.Flush()
	if st := w.Stats(); st.Dropped != 0 || st.Committed != int64(b.N) {
		b.Fatalf("committed %d dropped %d of %d hits", st.Committed, st.Dropped, b.N)
	}
}
