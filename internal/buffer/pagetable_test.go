package buffer

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"bpwrapper/internal/core"
	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/storage"
)

// TestPageTableFootprint pins what the table costs: a probe reads one
// 64-byte line that starts on a line boundary, and reader and writer side
// together stay within 176 bytes a frame at every shard size — read off the
// slices a real shard allocates where a test can afford the frames, off the
// sizing rule where it cannot.
func TestPageTableFootprint(t *testing.T) {
	const line = 64
	if s := unsafe.Sizeof(bucket{}); s != line {
		t.Fatalf("reader bucket is %d bytes, want %d", s, line)
	}
	if s := unsafe.Sizeof(core.Entry{}); s > 32 {
		t.Errorf("core.Entry is %d bytes with the slot in its tag, want <= 32", s)
	}
	perBucket := int(unsafe.Sizeof(bucket{}) + unsafe.Sizeof(bucketW{}))
	for _, frames := range []int{1, 3, 512, 1000, 2048} {
		sh := newTestPool(frames, core.Config{}).sh
		if a := uintptr(unsafe.Pointer(&sh.buckets[0])); a%line != 0 {
			t.Errorf("%d frames: reader buckets start at %#x, not on a cache line", frames, a)
		}
		if len(sh.bucketWs) != len(sh.buckets) {
			t.Fatalf("%d frames: %d reader and %d writer sides", frames, len(sh.buckets), len(sh.bucketWs))
		}
		if got := len(sh.buckets) * perBucket / frames; got > 176 {
			t.Errorf("%d frames: %d table bytes per frame, want <= 176", frames, got)
		}
	}
	for _, frames := range []int{1 << 20, 1e6, 1 << 30} {
		if got := tableBuckets(frames) * perBucket / frames; got > 176 {
			t.Errorf("%d frames: %d table bytes per frame, want <= 176", frames, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("a shard too large for 32-bit bucket scaling was sized without complaint")
		}
	}()
	tableBuckets(1<<30 + 1)
}

// colliding returns n page ids that all hash to the bucket of pid(0) in a
// table of nb buckets.
func colliding(nb, n int) []page.PageID {
	want := bucketIndex(pid(0), nb)
	var ids []page.PageID
	for i := uint64(0); len(ids) < n; i++ {
		if bucketIndex(pid(i), nb) == want {
			ids = append(ids, pid(i))
		}
	}
	return ids
}

// TestPageTableOverflowShare checks the occupancy arithmetic behind four
// slots and two buckets a frame — a million random pages at full residency
// leave at most 0.05 % of themselves in overflow chains — and that a page
// which does live there is a page like any other: found, pinned, evicted,
// invalidated, and moved into a slot as soon as one empties.
func TestPageTableOverflowShare(t *testing.T) {
	const frames = 1 << 20
	counts := make([]uint8, tableBuckets(frames))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < frames; i++ { // 2^54 ids to draw from: no need to look for repeats
		id := page.NewPageID(1+uint32(rng.Intn(1<<10)), uint64(rng.Int63n(1<<44)))
		counts[bucketIndex(id, len(counts))]++
	}
	over := 0
	for _, c := range counts {
		if c > bucketSlots {
			over += int(c) - bucketSlots
		}
	}
	if limit := frames * 5 / 10000; over > limit {
		t.Errorf("%d of %d pages in overflow, want at most %d (0.05%%)", over, frames, limit)
	}

	// Six pages in one four-slot bucket of a real pool: two overflow.
	const small = 16
	p := newTestPool(small, core.Config{})
	sh, s := p.sh, p.NewSession()
	ids := colliding(len(sh.buckets), bucketSlots+2)
	b := sh.bucketFor(ids[0])
	get := func(id page.PageID) *PageRef {
		t.Helper()
		ref, err := p.Get(s, id)
		if err != nil {
			t.Fatalf("Get(%v): %v", id, err)
		}
		if !refStamped(ref, id) {
			t.Fatalf("Get(%v) returned another page's bytes", id)
		}
		return ref
	}
	for _, id := range ids {
		get(id).Release()
	}
	if n := b.overflowN.Load(); n != 2 {
		t.Fatalf("overflowN = %d after six pages into one bucket, want 2", n)
	}
	last := ids[len(ids)-1]
	if _, stable := b.lookupOptimistic(last); stable {
		t.Fatal("a page in the overflow chain answered a lock-free probe")
	}

	// Found and pinned: a hit through the mutex fallback, and the pin holds.
	before := p.Stats()
	ref := get(last)
	s.Flush()
	if st := p.Stats(); st.Hits != before.Hits+1 || st.HitpathFallbacks != before.HitpathFallbacks+1 {
		t.Fatalf("overflowed page: hits %d -> %d, fallbacks %d -> %d; want one hit served by the fallback",
			before.Hits, st.Hits, before.HitpathFallbacks, st.HitpathFallbacks)
	}
	if err := p.Invalidate(last); !errors.Is(err, ErrNoUnpinnedBuffers) {
		t.Fatalf("Invalidate of a pinned overflowed page: %v, want ErrNoUnpinnedBuffers", err)
	}
	ref.Release()

	// Invalidated: gone from the chain, the pool still consistent.
	if err := p.Invalidate(last); err != nil {
		t.Fatal(err)
	}
	if f := sh.lookupLocked(b, last); f != nil || b.overflowN.Load() != 1 {
		t.Fatalf("after Invalidate: frame %p, overflowN %d; want unmapped and 1", f, b.overflowN.Load())
	}

	// Promoted: removing a page that sits in a slot hands the slot to the
	// one still in overflow, which is then within a lock-free probe's reach.
	if err := p.Invalidate(ids[0]); err != nil {
		t.Fatal(err)
	}
	spilled := ids[bucketSlots]
	if slot, stable := b.lookupOptimistic(spilled); !stable || slot < 0 || b.overflowN.Load() != 0 {
		t.Fatalf("after a slot emptied: probe (%d, %v), overflowN %d; want the spilled page promoted", slot, stable, b.overflowN.Load())
	}
	get(spilled).Release()

	// Evicted: refill the bucket past its slots, then push everything out.
	get(ids[0]).Release()
	get(last).Release()
	if n := b.overflowN.Load(); n != 2 {
		t.Fatalf("overflowN = %d after refilling the bucket, want 2", n)
	}
	for i := uint64(0); i < 2*small; i++ {
		get(page.NewPageID(2, i)).Release()
	}
	for _, id := range ids {
		if sh.lookupLocked(b, id) != nil {
			t.Fatalf("page %v still mapped after the pool turned over twice", id)
		}
	}
	if n := b.overflowN.Load(); n != 0 {
		t.Fatalf("overflowN = %d with the bucket's pages all evicted, want 0", n)
	}
	s.Flush()
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// hitSpy records the hits that reach the policy it wraps.
type hitSpy struct {
	replacer.Policy
	hits []page.PageID
}

func (p *hitSpy) Hit(id page.PageID) {
	p.hits = append(p.hits, id)
	p.Policy.Hit(id)
}

// TestCommitValidatesBySlot pins commit-time validation by frame slot: it
// probes no bucket (on the reference lookup of a torture build, where every
// probe is a counted lock, a resident access takes exactly one; on the
// product's seqlock lookup, none), and it drops exactly what the probe
// dropped — an entry whose frame has since been given to another
// page, or to a later residency of the same page — plus anything carrying a
// slot the shard has no frame for. The last case is the validator's table:
// one batch of every kind of entry, of which exactly the live ones reach the
// policy, in order and in one batch.
func TestCommitValidatesBySlot(t *testing.T) {
	batching := core.Config{Batching: true, QueueSize: 64, BatchThreshold: 32}

	t.Run("one bucket lock per locked access", func(t *testing.T) {
		const pages, accesses = 8, 1000
		var want int64
		if referenceLookup(t) {
			want = accesses
		}
		p := New(Config{Frames: pages, PolicyFactory: factoryOf("lru"), Wrapper: batching,
			Device: storage.NewMemDevice()})
		s := p.NewSession()
		for i := uint64(0); i < pages; i++ {
			ref, err := p.Get(s, pid(i))
			if err != nil {
				t.Fatal(err)
			}
			ref.Release()
		}
		s.Flush()
		before := p.Stats()
		for i := uint64(0); i < accesses; i++ {
			ref, err := p.Get(s, pid(i%pages))
			if err != nil {
				t.Fatal(err)
			}
			ref.Release()
		}
		s.Flush()
		st := p.Stats()
		hits, committed := st.Hits-before.Hits, st.Wrapper.Committed-before.Wrapper.Committed
		dropped, bucketLocks := st.Wrapper.Dropped-before.Wrapper.Dropped, st.BucketLockAcqs-before.BucketLockAcqs
		if hits != accesses || committed != accesses || dropped != 0 {
			t.Fatalf("hits %d committed %d dropped %d, want %d/%d/0", hits, committed, dropped, accesses, accesses)
		}
		if bucketLocks != want {
			t.Fatalf("%d bucket locks for %d resident accesses, want %d: the commit must not probe",
				bucketLocks, accesses, want)
		}
	})

	t.Run("recycled frames and foreign slots drop", func(t *testing.T) {
		// One frame, so every miss recycles the frame the queued hit names.
		spy := &hitSpy{Policy: replacer.NewLRU(1)}
		p := New(Config{Frames: 1, PolicyFactory: func(int) replacer.Policy { return spy }, Wrapper: batching, Device: storage.NewMemDevice()})
		s, other := p.NewSession(), p.NewSession()
		a, b := pid(1), pid(2)
		touch := func(s *Session, id page.PageID) page.BufferTag {
			t.Helper()
			ref, err := p.Get(s, id)
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Release()
			return ref.Tag()
		}
		dropped := func() int64 { return p.Stats().Wrapper.Dropped }

		// Still resident: the queued hit commits.
		touch(s, a)
		touch(s, a)
		s.Flush()
		if len(spy.hits) != 1 || spy.hits[0] != a || dropped() != 0 {
			t.Fatalf("hits %v dropped %d, want the one hit on %v committed", spy.hits, dropped(), a)
		}

		// Recycled to another page.
		touch(s, a)
		touch(other, b)
		s.Flush()
		if len(spy.hits) != 1 || dropped() != 1 {
			t.Fatalf("frame given to another page: hits %v dropped %d, want the entry dropped", spy.hits, dropped())
		}

		// Recycled to the same page: same slot, same id, later generation.
		touch(s, a)
		queued := touch(s, a)
		touch(other, b)
		if again := touch(other, a); again.Slot != queued.Slot || again.Page != queued.Page || again.Gen == queued.Gen {
			t.Fatalf("reloaded tag %+v against queued %+v: want same slot and page, new generation", again, queued)
		}
		s.Flush()
		if len(spy.hits) != 1 || dropped() != 2 {
			t.Fatalf("frame given back to the same page: hits %v dropped %d, want the entry dropped", spy.hits, dropped())
		}

		// A slot this shard has no frame for: dropped, not a panic. The live
		// tag but for its slot, so only the bounds check can refuse it.
		live := touch(other, a)
		live.Slot = 1 << 31
		sub := p.sh.wrapper.NewSession()
		sub.Hit(a, live)
		sub.Flush()
		other.Flush()
		if n := len(spy.hits); n != 2 || spy.hits[1] != a || dropped() != 3 {
			t.Fatalf("hits %v dropped %d, want the out-of-range entry dropped and only the session's own hit applied", spy.hits, dropped())
		}
		if err := p.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("one batch, every kind of entry", func(t *testing.T) {
		const frames = 4
		spy := &batchSpy{LRU: replacer.NewLRU(frames)}
		p := New(Config{Frames: frames, PolicyFactory: func(int) replacer.Policy { return spy }, Wrapper: batching, Device: storage.NewMemDevice()})
		sh, s := p.sh, p.NewSession()
		tagOf := func(id page.PageID) page.BufferTag {
			t.Helper()
			ref, err := p.Get(s, id)
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Release()
			return ref.Tag()
		}
		a, b, c := pid(1), pid(2), pid(3)
		ta, tb := tagOf(a), tagOf(b)
		s.Flush()
		free := uint32(0)
		for free == ta.Slot || free == tb.Slot {
			free++
		}
		stale, wrongSlot := tb, ta
		stale.Gen--
		wrongSlot.Slot = frames
		cases := []struct {
			what string
			e    core.Entry
			live bool
		}{
			{"live", core.Entry{ID: a, Tag: ta}, true},
			{"stale generation", core.Entry{ID: b, Tag: stale}, false},
			{"another page in the same slot", core.Entry{ID: c, Tag: page.BufferTag{Page: c, Gen: ta.Gen, Slot: ta.Slot}}, false},
			{"live, second page", core.Entry{ID: b, Tag: tb}, true},
			{"slot out of range", core.Entry{ID: a, Tag: wrongSlot}, false},
			{"free frame", core.Entry{ID: c, Tag: page.BufferTag{Page: c, Slot: free}}, false},
			{"live, first page again", core.Entry{ID: a, Tag: ta}, true},
		}
		var batch, want []core.Entry
		for _, tc := range cases {
			batch = append(batch, tc.e)
			if tc.live {
				want = append(want, tc.e)
			}
		}

		// The validator alone: the live entries, in order, in place.
		in := slices.Clone(batch)
		if got := sh.validTags(in); !slices.Equal(got, want) || (len(got) > 0 && &got[0] != &in[0]) {
			t.Fatalf("validTags kept %+v, want %+v in place", got, want)
		}
		for i, tc := range cases {
			if got := sh.validTags([]core.Entry{tc.e}); (len(got) == 1) != tc.live {
				t.Errorf("entry %d (%s): kept %v, want %v", i, tc.what, len(got) == 1, tc.live)
			}
		}

		// Through a commit: one batch reaches the policy, holding exactly
		// the live entries in order, and the rest are counted as dropped.
		sub := sh.wrapper.NewSession()
		for _, e := range batch {
			sub.Hit(e.ID, e.Tag)
		}
		before := p.Stats().Wrapper
		sub.Flush()
		after := p.Stats().Wrapper
		if len(spy.batches) != 1 || !slices.Equal(spy.batches[0], want) {
			t.Fatalf("the policy was handed %+v, want one batch %+v", spy.batches, want)
		}
		if n, d := after.Committed-before.Committed, after.Dropped-before.Dropped; n != int64(len(want)) || d != int64(len(batch)-len(want)) {
			t.Fatalf("committed %d dropped %d, want %d/%d", n, d, len(want), len(batch)-len(want))
		}
		if err := p.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// batchSpy records every batch of hits handed to the LRU it wraps.
type batchSpy struct {
	*replacer.LRU
	batches [][]core.Entry
}

func (p *batchSpy) HitSlots(batch []replacer.Access) {
	p.batches = append(p.batches, slices.Clone(batch))
	p.LRU.HitSlots(batch)
}

// TestPageTableOverflowChurn keeps a pool's whole working set in two
// buckets, so that most mapped pages sit in the overflow chains while four
// backends miss, hit, write and evict through them and a fifth invalidates
// and flushes pages under them; every page must read back as itself, and
// the table must come out consistent and then empty.
func TestPageTableOverflowChurn(t *testing.T) {
	const frames, workers, rounds = 16, 4, 3000
	p := newTestPool(frames, core.Config{Batching: true, QueueSize: 8, BatchThreshold: 4})
	nb := len(p.sh.buckets)
	ids := colliding(nb, 12)
	for i := uint64(0); len(ids) < 24; i++ { // twelve more, all in a second bucket
		if id := page.NewPageID(3, i); bucketIndex(id, nb) == (bucketIndex(ids[0], nb)+1)%nb {
			ids = append(ids, id)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng, s := rand.New(rand.NewSource(seed)), p.NewSession()
			for i := 0; i < rounds; i++ {
				id := ids[rng.Intn(len(ids))]
				write := rng.Intn(8) == 0
				var ref *PageRef
				var err error
				if write {
					ref, err = p.GetWrite(s, id)
				} else {
					ref, err = p.Get(s, id)
				}
				if err != nil {
					t.Errorf("Get(%v): %v", id, err)
					return
				}
				if !refStamped(ref, id) {
					t.Errorf("Get(%v) returned another page's bytes", id)
				}
				if write {
					ref.MarkDirty()
				}
				ref.Release()
			}
			s.Flush()
		}(int64(w))
	}
	stop, raced := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(raced)
		rng := rand.New(rand.NewSource(workers))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := p.Invalidate(ids[rng.Intn(len(ids))]); err != nil && !errors.Is(err, ErrNoUnpinnedBuffers) {
				t.Errorf("Invalidate: %v", err)
				return
			}
			if i%8 == 0 {
				if _, err := p.FlushDirty(); err != nil {
					t.Errorf("FlushDirty: %v", err)
					return
				}
			}
			runtime.Gosched()
		}
	}()
	wg.Wait()
	close(stop)
	<-raced
	if st := p.Stats(); st.HitpathFallbacks == 0 {
		t.Error("no lookup ever fell back to the mutex: the overflow chains were not exercised")
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if err := p.Invalidate(id); err != nil {
			t.Fatalf("Invalidate(%v): %v", id, err)
		}
	}
	if st := p.Stats(); st.Free != frames {
		t.Fatalf("%d of %d frames free with every page invalidated", st.Free, frames)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
