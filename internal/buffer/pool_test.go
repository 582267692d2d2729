package buffer

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"bpwrapper/internal/core"
	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/storage"
)

func pid(n uint64) page.PageID { return page.NewPageID(1, n) }

// factoryOf names a replacement algorithm for a Config.PolicyFactory.
func factoryOf(name string) replacer.Factory { return replacer.Factories()[name] }

// refStamped reports whether the pinned page carries the stamp of id.
func refStamped(ref *PageRef, id page.PageID) bool {
	var got page.Page
	copy(got.Data[:], ref.Data())
	return got.VerifyStamp(id)
}

func newTestPool(frames int, wcfg core.Config) *Pool {
	return New(Config{
		Frames:        frames,
		PolicyFactory: factoryOf("lru"),
		Wrapper:       wcfg,
		Device:        storage.NewMemDevice(),
	})
}

func TestGetLoadsAndHits(t *testing.T) {
	p := newTestPool(4, core.Config{})
	s := p.NewSession()

	ref, err := p.Get(s, pid(1))
	if err != nil {
		t.Fatal(err)
	}
	var want page.Page
	want.Stamp(pid(1))
	if string(ref.Data()[:16]) != string(want.Data[:16]) {
		t.Fatal("loaded page content wrong")
	}
	ref.Release()

	ref, err = p.Get(s, pid(1))
	if err != nil {
		t.Fatal(err)
	}
	ref.Release()

	// Hits are staged session-locally; Flush folds them into the pool
	// counters before the exact-count assertion.
	s.Flush()
	if h, m := p.AccessStats().Hits, p.AccessStats().Misses; h != 1 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", h, m)
	}
}

func TestEvictionWritesBackDirty(t *testing.T) {
	dev := storage.NewMemDevice()
	p := New(Config{Frames: 2, PolicyFactory: factoryOf("lru"), Device: dev})
	s := p.NewSession()

	ref, err := p.GetWrite(s, pid(1))
	if err != nil {
		t.Fatal(err)
	}
	ref.Data()[0] = 0x77
	ref.MarkDirty()
	ref.Release()

	// Force pid(1) out by filling the pool.
	for i := uint64(2); i <= 4; i++ {
		r, err := p.Get(s, pid(i))
		if err != nil {
			t.Fatal(err)
		}
		r.Release()
	}

	var back page.Page
	if err := dev.ReadPage(pid(1), &back); err != nil {
		t.Fatal(err)
	}
	if back.Data[0] != 0x77 {
		t.Fatal("dirty page not written back on eviction")
	}

	// Reloading must observe the modification.
	r, err := p.Get(s, pid(1))
	if err != nil {
		t.Fatal(err)
	}
	if r.Data()[0] != 0x77 {
		t.Fatal("reload lost the modification")
	}
	r.Release()
}

func TestPinnedPageNotEvicted(t *testing.T) {
	p := newTestPool(2, core.Config{})
	s := p.NewSession()

	pinned, err := p.Get(s, pid(1))
	if err != nil {
		t.Fatal(err)
	}
	// pid(1) is LRU from here on, but it is pinned: the pool must always
	// reclaim the other frame, never the pinned one.
	r2, err := p.Get(s, pid(2))
	if err != nil {
		t.Fatal(err)
	}
	r2.Release()
	for i := uint64(3); i < 10; i++ {
		r, err := p.Get(s, pid(i))
		if err != nil {
			t.Fatal(err)
		}
		r.Release()
	}
	// The pinned reference must still be valid and correct.
	var want page.Page
	want.Stamp(pid(1))
	if string(pinned.Data()[:32]) != string(want.Data[:32]) {
		t.Fatal("pinned page was recycled")
	}
	pinned.Release()
}

// TestMissSkipsPinnedVictim pins the page every policy ranks lowest in a
// full pool — for LFU and LRU-2 the one admitted last — and misses. The miss
// must succeed and leave the pinned page resident, and, for a policy whose
// order is a list or a heap rather than a clock hand, where it stood: once
// unpinned it is the next miss's victim. The pin is taken through a session
// whose queued hit is never committed, so only the pin is in the way.
func TestMissSkipsPinnedVictim(t *testing.T) {
	const frames = 4
	hand := map[string]bool{"clock": true, "gclock": true, "car": true, "clockpro": true}
	get := func(p *Pool, s *Session, id page.PageID) *PageRef {
		t.Helper()
		ref, err := p.Get(s, id)
		if err != nil {
			t.Fatalf("Get(%v): %v", id, err)
		}
		return ref
	}
	// fill reads page i frames+1-i times: the page admitted last is read least.
	fill := func(name string) (*Pool, *Session) {
		p := New(Config{
			Frames:        frames,
			PolicyFactory: factoryOf(name),
			Wrapper:       core.Config{Batching: true, QueueSize: 8, BatchThreshold: 8},
			Device:        storage.NewMemDevice(),
		})
		s := p.NewSession()
		for i := uint64(1); i <= frames; i++ {
			for n := i; n <= frames; n++ {
				get(p, s, pid(i)).Release()
			}
		}
		return p, s
	}
	// miss loads id and names the page of 1..frames it evicted.
	resident := func(p *Pool) (ids map[page.PageID]bool) {
		ids = make(map[page.PageID]bool)
		p.Wrapper().Locked(func(pol replacer.Policy) {
			for i := uint64(1); i <= frames; i++ {
				ids[pid(i)] = pol.Contains(pid(i))
			}
		})
		return ids
	}
	miss := func(p *Pool, s *Session, id page.PageID) (victim page.PageID) {
		t.Helper()
		before := resident(p)
		get(p, s, id).Release()
		for id, in := range resident(p) {
			if before[id] && !in {
				victim = id
			}
		}
		return victim
	}
	for _, name := range replacer.Names() {
		t.Run(name, func(t *testing.T) {
			p, s := fill(name)
			lowest := miss(p, s, pid(101))

			p, s = fill(name)
			pinned := get(p, p.NewSession(), lowest)
			if v := miss(p, s, pid(101)); v == lowest || !v.Valid() {
				t.Fatalf("the miss evicted %v with %v pinned", v, lowest)
			}
			if !refStamped(pinned, lowest) {
				t.Fatal("pinned page's bytes changed")
			}
			pinned.Release()
			if v := miss(p, s, pid(102)); !hand[name] && v != lowest {
				t.Errorf("unpinned, %v is not the next victim (%v is): it lost its rank", lowest, v)
			}
			s.Flush()
			if err := p.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMissIsOneLockHold: a miss takes the policy lock once, as
// replacement_for_page_miss does in the paper's Figure 4, whether it finds a
// free frame or evicts, and however many sessions miss at once. The stream is
// misses only, so no session queues a hit and its Flush takes no lock.
func TestMissIsOneLockHold(t *testing.T) {
	for _, sessions := range []int{1, 4} {
		t.Run(fmt.Sprintf("sessions=%d", sessions), func(t *testing.T) {
			const perSession = 200
			p := newTestPool(16, core.Config{Batching: true})
			var wg sync.WaitGroup
			for g := 0; g < sessions; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					s := p.NewSession()
					defer s.Flush()
					for i := 0; i < perSession; i++ {
						ref, err := p.Get(s, pid(uint64(1+i*sessions+g)))
						if err != nil {
							t.Error(err)
							return
						}
						ref.Release()
					}
				}(g)
			}
			wg.Wait()
			// Stats takes no policy lock, so it adds no hold of its own.
			st, holds := p.AccessStats(), p.Stats().Wrapper.Lock.Acquisitions
			if st.Misses != int64(sessions*perSession) || st.Hits != 0 {
				t.Fatalf("%d misses and %d hits, want %d misses only", st.Misses, st.Hits, sessions*perSession)
			}
			if holds != st.Misses {
				t.Fatalf("%d policy-lock holds for %d misses (%.2f a miss), want one each",
					holds, st.Misses, float64(holds)/float64(st.Misses))
			}
			if err := p.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMissBucketHolds counts the bucket-mutex holds of one miss: one to
// register its load and one to map the page and unchain the load in the
// same hold, plus one to unmap a victim and one more to unchain a dirty
// victim's write-back.
func TestMissBucketHolds(t *testing.T) {
	p := newTestPool(2, core.Config{})
	s := p.NewSession()
	holds := func(what string, want int64, get func(*Session, page.PageID) (*PageRef, error), id page.PageID, dirty bool) {
		t.Helper()
		before := p.Stats().BucketLockAcqs
		ref, err := get(s, id)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Stats().BucketLockAcqs - before; got != want {
			t.Errorf("a miss %s took %d bucket holds, want %d", what, got, want)
		}
		if dirty {
			ref.MarkDirty()
		}
		ref.Release()
	}
	holds("into a free frame", 2, p.Get, pid(1), false)
	holds("into a free frame, writable", 2, p.GetWrite, pid(2), true)
	holds("with a clean victim", 3, p.Get, pid(3), false) // evicts 1
	holds("with a dirty victim", 4, p.Get, pid(4), false) // evicts 2
	if ev := p.Stats().EvictWritebacks; ev != 1 {
		t.Fatalf("%d eviction write-backs, want the dirty victim's one", ev)
	}
}

// TestLoadingPageIsNeverAVictim: a page is in the policy from the hold that
// claims its frame, for the whole load. With one load held at the device
// while its page ranks lowest (LFU and LRU-2 rank a page just admitted
// lowest), another session's miss must pass it over, its frame being
// claimed, and evict a resident page; let go, the load completes and both
// pages are resident.
func TestLoadingPageIsNeverAVictim(t *testing.T) {
	const frames = 4
	for _, name := range replacer.Names() {
		t.Run(name, func(t *testing.T) {
			gate := newGateDevice(storage.NewMemDevice())
			p := New(Config{
				Frames:        frames,
				PolicyFactory: factoryOf(name),
				Wrapper:       core.Config{Batching: true, QueueSize: 8, BatchThreshold: 8},
				Device:        gate,
			})
			s := p.NewSession()
			get := func(s *Session, id page.PageID) error {
				ref, err := p.Get(s, id)
				if err == nil {
					ref.Release()
				}
				return err
			}
			// Page i is read frames+1-i times: the page admitted last is read least.
			for i := uint64(1); i <= frames; i++ {
				for n := i; n <= frames; n++ {
					if err := get(s, pid(i)); err != nil {
						t.Fatal(err)
					}
				}
			}
			entered, release := gate.armRead(pid(101))
			loaded := make(chan error, 1)
			go func() { loaded <- get(p.NewSession(), pid(101)) }()
			<-entered
			if err := get(s, pid(102)); err != nil {
				t.Fatalf("a miss with another page loading: %v", err)
			}
			close(release)
			if err := <-loaded; err != nil {
				t.Fatalf("the held load: %v", err)
			}
			s.Flush()
			p.Wrapper().Locked(func(pol replacer.Policy) {
				for _, id := range []page.PageID{pid(101), pid(102)} {
					if !pol.Contains(id) {
						t.Errorf("%v is not resident", id)
					}
				}
			})
			if err := p.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAllPinnedFails(t *testing.T) {
	p := newTestPool(2, core.Config{})
	s := p.NewSession()
	r1, err := p.Get(s, pid(1))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.Get(s, pid(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(s, pid(3)); !errors.Is(err, ErrNoUnpinnedBuffers) {
		t.Fatalf("err=%v, want ErrNoUnpinnedBuffers", err)
	}
	r1.Release()
	r2.Release()
	// With pins gone the pool recovers.
	r3, err := p.Get(s, pid(3))
	if err != nil {
		t.Fatalf("pool did not recover: %v", err)
	}
	r3.Release()
}

func TestReleasePanicsTwice(t *testing.T) {
	p := newTestPool(2, core.Config{})
	s := p.NewSession()
	r, _ := p.Get(s, pid(1))
	r.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release not detected")
		}
	}()
	r.Release()
}

func TestMarkDirtyOnReadRefPanics(t *testing.T) {
	p := newTestPool(2, core.Config{})
	s := p.NewSession()
	r, _ := p.Get(s, pid(1))
	defer r.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("MarkDirty on read-only ref not detected")
		}
	}()
	r.MarkDirty()
}

func TestInvalidate(t *testing.T) {
	p := newTestPool(4, core.Config{})
	s := p.NewSession()
	r, _ := p.GetWrite(s, pid(1))
	r.Data()[0] = 0xEE
	r.MarkDirty()

	if err := p.Invalidate(pid(1)); !errors.Is(err, ErrNoUnpinnedBuffers) {
		t.Fatalf("invalidating a pinned page: %v", err)
	}
	r.Release()
	if err := p.Invalidate(pid(1)); err != nil {
		t.Fatal(err)
	}
	// Dirty data must be discarded, not written back.
	r2, _ := p.Get(s, pid(1))
	if r2.Data()[0] == 0xEE {
		t.Fatal("invalidate leaked dirty data")
	}
	r2.Release()
	// Invalidating an absent page is a no-op.
	if err := p.Invalidate(pid(99)); err != nil {
		t.Fatal(err)
	}
}

func TestFlushDirty(t *testing.T) {
	dev := storage.NewMemDevice()
	p := New(Config{Frames: 4, PolicyFactory: factoryOf("lru"), Device: dev})
	s := p.NewSession()
	for i := uint64(1); i <= 3; i++ {
		r, _ := p.GetWrite(s, pid(i))
		r.Data()[0] = byte(i)
		r.MarkDirty()
		r.Release()
	}
	n, err := p.FlushDirty()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("flushed %d, want 3", n)
	}
	for i := uint64(1); i <= 3; i++ {
		var back page.Page
		dev.ReadPage(pid(i), &back)
		if back.Data[0] != byte(i) {
			t.Fatalf("page %d not flushed", i)
		}
	}
	// Second flush finds nothing dirty.
	if n, _ := p.FlushDirty(); n != 0 {
		t.Fatalf("second flush wrote %d", n)
	}
}

func TestPrewarmEliminatesMisses(t *testing.T) {
	p := newTestPool(64, core.Config{Batching: true})
	ids := make([]page.PageID, 64)
	for i := range ids {
		ids[i] = pid(uint64(i))
	}
	if err := p.Prewarm(ids); err != nil {
		t.Fatal(err)
	}
	before := p.AccessStats()
	s := p.NewSession()
	for round := 0; round < 10; round++ {
		for _, id := range ids {
			r, err := p.Get(s, id)
			if err != nil {
				t.Fatal(err)
			}
			r.Release()
		}
	}
	s.Flush()
	after := p.AccessStats()
	if m := after.Misses - before.Misses; m != 0 {
		t.Fatalf("%d misses after prewarm", m)
	}
	if h := after.Hits - before.Hits; h != int64(10*len(ids)) {
		t.Fatalf("%d hits after prewarm, want %d", h, 10*len(ids))
	}
}

func TestConcurrentGetSamePage(t *testing.T) {
	p := newTestPool(8, core.Config{})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := p.NewSession()
			for i := 0; i < 200; i++ {
				r, err := p.Get(s, pid(5))
				if err != nil {
					t.Error(err)
					return
				}
				if !r.Tag().Page.Valid() {
					t.Error("invalid tag on pinned ref")
				}
				r.Release()
			}
		}()
	}
	wg.Wait()
	// The page must have been read from the device exactly once.
	if reads := p.Device().Stats().Reads; reads != 1 {
		t.Fatalf("device reads=%d, want 1 (single-flight broken)", reads)
	}
}

func TestConcurrentChurnIntegrity(t *testing.T) {
	// Heavy concurrent access with far more pages than frames: every read
	// must observe either the stamp or the last written content.
	const frames = 32
	p := New(Config{
		Frames:        frames,
		PolicyFactory: factoryOf("2q"),
		Wrapper:       core.Config{Batching: true, Prefetching: true, QueueSize: 16, BatchThreshold: 8},
		Device:        storage.NewMemDevice(),
	})
	const workers = 8
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			s := p.NewSession()
			defer s.Flush()
			for i := 0; i < 3000; i++ {
				id := pid(r.Uint64() % 200)
				if r.Intn(4) == 0 {
					ref, err := p.GetWrite(s, id)
					if err != nil {
						t.Error(err)
						return
					}
					// Deterministic overwrite: the page keeps its stamp
					// except byte 0 becomes 0xFF.
					ref.Data()[0] = 0xFF
					ref.MarkDirty()
					ref.Release()
				} else {
					ref, err := p.Get(s, id)
					if err != nil {
						t.Error(err)
						return
					}
					var want page.Page
					want.Stamp(id)
					d := ref.Data()
					if d[0] != 0xFF && d[0] != want.Data[0] {
						t.Errorf("page %v byte0=%x: torn content", id, d[0])
						ref.Release()
						return
					}
					if string(d[1:64]) != string(want.Data[1:64]) {
						t.Errorf("page %v tail corrupted", id)
						ref.Release()
						return
					}
					ref.Release()
				}
			}
		}(g)
	}
	wg.Wait()
	if p.AccessStats().Accesses() != workers*3000 {
		t.Fatalf("accesses=%d", p.AccessStats().Accesses())
	}
}

func TestValidatorDropsRecycledFrames(t *testing.T) {
	// Stale queued entries are inherently cross-session: a session's own
	// miss commits its queue before evicting, but another session's miss
	// can recycle a frame that a first session has queued hits against.
	// The commit-time BufferTag validation (Section IV-B) must drop them.
	p := New(Config{
		Frames:        2,
		PolicyFactory: factoryOf("lru"),
		Wrapper:       core.Config{Batching: true, QueueSize: 32, BatchThreshold: 32},
		Device:        storage.NewMemDevice(),
	})
	s1 := p.NewSession()
	s2 := p.NewSession()

	// s1 loads X and queues hits on it.
	for i := 0; i < 4; i++ {
		r, err := p.Get(s1, pid(1))
		if err != nil {
			t.Fatal(err)
		}
		r.Release()
	}
	if s1.Pending() == 0 {
		t.Fatal("test setup: no hits queued")
	}

	// s2's misses evict X and recycle its frame.
	for i := uint64(2); i < 8; i++ {
		r, err := p.Get(s2, pid(i))
		if err != nil {
			t.Fatal(err)
		}
		r.Release()
	}

	// s1's queued hits on X are now stale and must be dropped at commit.
	s1.Flush()
	ps := p.Stats()
	st := ps.Wrapper
	if st.Dropped == 0 {
		t.Fatal("expected stale queued entries to be dropped")
	}
	if st.Committed+st.Dropped != ps.Hits {
		t.Fatalf("committed(%d)+dropped(%d) != hits(%d)", st.Committed, st.Dropped, ps.Hits)
	}
}

func TestPoolConfigValidation(t *testing.T) {
	dev := storage.NewMemDevice()
	for _, cfg := range []Config{
		{Frames: 0, PolicyFactory: factoryOf("lru"), Device: dev},
		{Frames: 4, PolicyFactory: nil, Device: dev},
		{Frames: 4, PolicyFactory: func(int) replacer.Policy { return replacer.NewLRU(2) }, Device: dev}, // ignores the capacity it is given
		{Frames: 4, PolicyFactory: factoryOf("lru"), Device: nil},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v accepted", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

// TestShardsAboveOneRefused: the pool is one partition. Shards above one
// is refused at construction, naming the roadmap item that explains why,
// and Shards 0 and 1 build the same pool: one seeded access sequence
// leaves them with the same Stats.
func TestShardsAboveOneRefused(t *testing.T) {
	for _, n := range []int{2, 4, -1} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "ROADMAP 16") {
					t.Errorf("Shards %d: panic %q, want one naming ROADMAP 16", n, msg)
				}
			}()
			New(Config{Frames: 8, Shards: n, PolicyFactory: factoryOf("2q"), Device: storage.NewMemDevice()})
		}()
	}

	run := func(shards int) Stats {
		p := New(Config{
			Frames:        32,
			Shards:        shards,
			PolicyFactory: factoryOf("2q"),
			Wrapper:       core.Config{Batching: true, Prefetching: true},
			Device:        storage.NewMemDevice(),
		})
		s := p.NewSession()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 5000; i++ {
			id := pid(uint64(rng.Intn(96)) + 1)
			write := rng.Intn(5) == 0
			get := p.Get
			if write {
				get = p.GetWrite
			}
			ref, err := get(s, id)
			if err != nil {
				t.Fatalf("Shards %d: access %d: %v", shards, i, err)
			}
			if write {
				ref.MarkDirty()
			}
			ref.Release()
		}
		s.Flush()
		st := p.Stats()
		// Clocked durations are the one part of a snapshot a seed does
		// not fix.
		st.Wrapper.Lock.WaitTime = 0
		return st
	}
	zero, one := run(0), run(1)
	if zero != one {
		t.Fatalf("Shards 0 and Shards 1 differ after the same accesses:\n  0: %+v\n  1: %+v", zero, one)
	}
	if zero.Hits == 0 || zero.Misses == 0 || zero.EvictWritebacks == 0 {
		t.Fatalf("degenerate sequence: %+v", zero)
	}
}

func TestGetInvalidPage(t *testing.T) {
	p := newTestPool(2, core.Config{})
	s := p.NewSession()
	if _, err := p.Get(s, page.InvalidPageID); err == nil {
		t.Fatal("invalid page id accepted")
	}
}

func TestClockPoolLockFreeHits(t *testing.T) {
	// The pgClock configuration: hits must not acquire the policy lock.
	p := New(Config{
		Frames:        16,
		PolicyFactory: factoryOf("clock"),
		Wrapper:       core.Config{},
		Device:        storage.NewMemDevice(),
	})
	ids := make([]page.PageID, 16)
	for i := range ids {
		ids[i] = pid(uint64(i))
	}
	if err := p.Prewarm(ids); err != nil {
		t.Fatal(err)
	}
	before := p.Wrapper().Stats().Lock.Acquisitions
	s := p.NewSession()
	for i := 0; i < 1000; i++ {
		r, err := p.Get(s, ids[i%16])
		if err != nil {
			t.Fatal(err)
		}
		r.Release()
	}
	if n := p.Wrapper().Stats().Lock.Acquisitions - before; n != 0 {
		t.Fatalf("clock hit path acquired the lock %d times", n)
	}
}

// residentCount is the number of pages the policy tracks, loads in flight
// included, read under the policy lock (Stats takes no policy lock).
func residentCount(p *Pool) (n int) {
	p.wrapper.Locked(func(pol replacer.Policy) { n = pol.Len() })
	return n
}

func TestPoolStatsSnapshot(t *testing.T) {
	p := newTestPool(8, core.Config{Batching: true})
	s := p.NewSession()
	for i := uint64(1); i <= 4; i++ {
		r, err := p.GetWrite(s, pid(i))
		if err != nil {
			t.Fatal(err)
		}
		r.MarkDirty()
		r.Release()
	}
	r, _ := p.Get(s, pid(1))
	r.Release()
	s.Flush()

	st := p.Stats()
	if st.Frames != 8 {
		t.Errorf("frames %d", st.Frames)
	}
	if st.Free != 4 {
		t.Errorf("free %d, want 4", st.Free)
	}
	if st.Dirty != 4 {
		t.Errorf("dirty %d, want 4", st.Dirty)
	}
	if n := residentCount(p); n != 4 {
		t.Errorf("resident %d, want 4", n)
	}
	if st.Hits != 1 || st.Misses != 4 {
		t.Errorf("hits/misses %d/%d", st.Hits, st.Misses)
	}
	if st.HitRatio != 0.2 {
		t.Errorf("hit ratio %v", st.HitRatio)
	}
	if st.Device.Reads != 4 {
		t.Errorf("device reads %d", st.Device.Reads)
	}
	if st.Wrapper.Committed != 1 {
		t.Errorf("wrapper committed %d hits, want 1", st.Wrapper.Committed)
	}
}
