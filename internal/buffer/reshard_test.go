package buffer

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bpwrapper/internal/core"
	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/storage"
)

// refStamped reports whether the pinned page carries the stamp of id.
func refStamped(ref *PageRef, id page.PageID) bool {
	var got page.Page
	copy(got.Data[:], ref.Data())
	return got.VerifyStamp(id)
}

func reshardablePool(frames, shards int, wcfg core.Config) (*Pool, *storage.MemDevice) {
	mem := storage.NewMemDevice()
	p := New(Config{
		Frames:        frames,
		Shards:        shards,
		PolicyFactory: func(c int) replacer.Policy { return replacer.NewLRU(c) },
		Wrapper:       wcfg,
		Device:        mem,
	})
	return p, mem
}

// TestReshardCarriesDirtyPages: unflushed writes must survive a grow AND a
// shrink — the migration steals bytes and the dirty bit from the old shard
// instead of re-reading a stale device copy, and the pages flush correctly
// from the new topology.
func TestReshardCarriesDirtyPages(t *testing.T) {
	p, mem := reshardablePool(16, 1, core.Config{})
	s := p.NewSession()
	for i := uint64(1); i <= 8; i++ {
		dirtyPage(t, p, s, pid(i))
	}

	if err := p.Reshard(4); err != nil {
		t.Fatalf("Reshard(4): %v", err)
	}
	if st := p.Stats(); st.Shards != 4 || st.Epoch != 1 || st.Resharding {
		t.Fatalf("Shards=%d, Epoch=%d, Resharding=%v after Reshard(4), want 4, 1, false",
			st.Shards, st.Epoch, st.Resharding)
	}
	if err := p.Reshard(2); err != nil {
		t.Fatalf("Reshard(2): %v", err)
	}

	// The dirty content (stamp of id+stampShift) must still be what reads
	// see, and must not have been silently dropped to the device's stale
	// original.
	for i := uint64(1); i <= 8; i++ {
		ref, err := p.Get(s, pid(i))
		if err != nil {
			t.Fatalf("Get(%d) after reshards: %v", i, err)
		}
		var want page.Page
		want.Stamp(pid(i) + stampShift)
		if string(ref.Data()[:32]) != string(want.Data[:32]) {
			t.Fatalf("page %d content lost across reshards", i)
		}
		ref.Release()
	}

	st := p.Stats()
	if st.Reshards != 2 {
		t.Fatalf("Reshards=%d, want 2", st.Reshards)
	}
	if st.PagesMigrated == 0 {
		t.Fatal("PagesMigrated=0 after two migrations")
	}
	if st.Frames != 16 {
		t.Fatalf("Frames=%d after reshards, want the same 16-frame budget", st.Frames)
	}

	s.Flush()
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if _, err := p.FlushDirty(); err != nil {
		t.Fatalf("FlushDirty: %v", err)
	}
	for i := uint64(1); i <= 8; i++ {
		var back page.Page
		if err := mem.ReadPage(pid(i), &back); err != nil {
			t.Fatalf("device read %d: %v", i, err)
		}
		if !back.VerifyStamp(pid(i) + stampShift) {
			t.Fatalf("page %d not durable after post-reshard flush", i)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestReshardUnderConcurrentTraffic: grow 1→4 and shrink 4→2 while reader
// and writer goroutines hammer the pool. No caller may ever observe an
// error (errResharded is internal), and page content must stay exact.
func TestReshardUnderConcurrentTraffic(t *testing.T) {
	p, _ := reshardablePool(64, 1, core.Config{Batching: true, QueueSize: 16, BatchThreshold: 4})
	const pages = 200

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			s := p.NewSession()
			defer s.Flush()
			for !stop.Load() {
				id := pid(uint64(rng.Intn(pages)) + 1)
				if rng.Intn(4) == 0 {
					ref, err := p.GetWrite(s, id)
					if err != nil {
						errs <- fmt.Errorf("GetWrite(%v): %w", id, err)
						return
					}
					var want page.Page
					want.Stamp(id + stampShift)
					copy(ref.Data(), want.Data[:])
					ref.MarkDirty()
					ref.Release()
				} else {
					ref, err := p.Get(s, id)
					if err != nil {
						errs <- fmt.Errorf("Get(%v): %w", id, err)
						return
					}
					// Every page is either its stamped original or the
					// writers' deterministic overwrite.
					if !refStamped(ref, id) && !refStamped(ref, id+stampShift) {
						errs <- fmt.Errorf("page %v content is neither original nor overwritten", id)
						ref.Release()
						return
					}
					ref.Release()
				}
			}
		}(int64(w))
	}

	for _, n := range []int{4, 2, 3, 1} {
		time.Sleep(20 * time.Millisecond)
		if err := p.Reshard(n); err != nil {
			t.Fatalf("Reshard(%d) under traffic: %v", n, err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("worker: %v", err)
	}

	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("invariants after concurrent reshards: %v", err)
	}
	st := p.Stats()
	if st.Reshards != 4 {
		t.Fatalf("Reshards=%d, want 4", st.Reshards)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestPinAcrossReshard: a PageRef held across a reshard stays valid (it
// pins the frame, not a route), delays only its own page's migration, and
// its dirty write is carried into the new topology after release.
func TestPinAcrossReshard(t *testing.T) {
	p, _ := reshardablePool(16, 1, core.Config{})
	s := p.NewSession()

	ref, err := p.GetWrite(s, pid(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(2); i <= 6; i++ {
		r, err := p.Get(s, pid(i))
		if err != nil {
			t.Fatal(err)
		}
		r.Release()
	}

	done := make(chan error, 1)
	go func() { done <- p.Reshard(4) }()

	// The reshard must NOT complete while page 1 is pinned: its migration
	// waits for the pin. Everything else migrates meanwhile.
	select {
	case err := <-done:
		t.Fatalf("Reshard completed despite a pinned page (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	if !p.Stats().Resharding {
		t.Fatal("migration reported complete while a page is still pinned")
	}

	// The held ref keeps working mid-migration: other pages are already
	// served by the new topology, while this frame is still ours.
	var want page.Page
	want.Stamp(pid(1) + stampShift)
	copy(ref.Data(), want.Data[:])
	ref.MarkDirty()

	// Unpinned pages flow freely during the stalled migration.
	s2 := p.NewSession()
	for i := uint64(2); i <= 6; i++ {
		r, err := p.Get(s2, pid(i))
		if err != nil {
			t.Fatalf("Get(%d) during pin-stalled reshard: %v", i, err)
		}
		r.Release()
	}

	ref.Release()
	if err := <-done; err != nil {
		t.Fatalf("Reshard after release: %v", err)
	}
	if st := p.Stats(); st.Epoch != 1 || st.Resharding {
		t.Fatalf("Epoch=%d, Resharding=%v, want 1, false", st.Epoch, st.Resharding)
	}

	// The write performed while pinned-across-the-reshard must be visible.
	r, err := p.Get(s2, pid(1))
	if err != nil {
		t.Fatal(err)
	}
	if !refStamped(r, pid(1)+stampShift) {
		t.Fatal("write made under a pin held across the reshard was lost")
	}
	r.Release()
	s.Flush()
	s2.Flush()
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestQuarantineHandedOverAcrossReshard: pages parked in the quarantine
// (evicted dirty, write-back failing) must survive a reshard losslessly and
// flush once the device heals.
func TestQuarantineHandedOverAcrossReshard(t *testing.T) {
	mem := storage.NewMemDevice()
	dev := storage.NewFaultDevice(mem, storage.FaultConfig{})
	p := disableShedding(New(Config{
		Frames:        4,
		PolicyFactory: func(c int) replacer.Policy { return replacer.NewLRU(c) },
		Device:        dev,
	}))
	s := p.NewSession()
	for i := uint64(1); i <= 4; i++ {
		dirtyPage(t, p, s, pid(i))
	}
	// Evict the dirty pages with their write-backs failing: they park in
	// the quarantine.
	dev.FailNextWrites(1 << 20)
	for i := uint64(10); i <= 13; i++ {
		ref, err := p.Get(s, pid(i))
		if err != nil {
			t.Fatalf("evicting read %d: %v", i, err)
		}
		ref.Release()
	}
	if q := p.quarantineLen(); q == 0 {
		t.Fatal("setup failed: nothing quarantined")
	}
	before := p.quarantineLen()

	if err := p.Reshard(2); err != nil {
		t.Fatalf("Reshard with quarantined pages: %v", err)
	}
	if q := p.quarantineLen(); q != before {
		t.Fatalf("quarantine len %d after reshard, want %d (lossless handover)", q, before)
	}

	dev.FailNextWrites(0)
	if _, _, err := p.drainQuarantine(); err != nil {
		t.Fatalf("drain after heal: %v", err)
	}
	for i := uint64(1); i <= 4; i++ {
		var back page.Page
		if err := mem.ReadPage(pid(i), &back); err != nil {
			t.Fatalf("device read %d: %v", i, err)
		}
		if !back.VerifyStamp(pid(i) + stampShift) {
			t.Fatalf("quarantined page %d not durable after reshard + heal", i)
		}
	}
	s.Flush()
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestStatsConsistentDuringReshard: concurrent Stats snapshots during a
// migration must never lose counts (hits+misses monotone — a shard counted
// neither twice nor zero times), must always report the full frame budget
// for the current topology, and PerShard must match Shards.
func TestStatsConsistentDuringReshard(t *testing.T) {
	p, _ := reshardablePool(32, 1, core.Config{})
	const pages = 100

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		s := p.NewSession()
		for !stop.Load() {
			ref, err := p.Get(s, pid(uint64(rng.Intn(pages))+1))
			if err == nil {
				ref.Release()
			}
		}
		s.Flush()
	}()

	statsErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastTotal int64
		for !stop.Load() {
			st := p.Stats()
			total := st.Hits + st.Misses
			if total < lastTotal {
				statsErr <- fmt.Errorf("access total went backwards: %d -> %d (shard counted zero times?)", lastTotal, total)
				return
			}
			lastTotal = total
			if st.Frames != 32 {
				statsErr <- fmt.Errorf("Frames=%d mid-reshard, want 32", st.Frames)
				return
			}
			if len(st.PerShard) != st.Shards {
				statsErr <- fmt.Errorf("len(PerShard)=%d but Shards=%d", len(st.PerShard), st.Shards)
				return
			}
		}
	}()

	for _, n := range []int{4, 1, 2, 4} {
		if err := p.Reshard(n); err != nil {
			t.Fatalf("Reshard(%d): %v", n, err)
		}
	}
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-statsErr:
		t.Fatal(err)
	default:
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestReshardReleasesOldTopology: a finished reshard keeps nothing of the
// old topology reachable from the pool, so its frame slab is reclaimed once
// the last session bound to it rebinds. Four reshards of a 4096-frame pool
// (32 MiB of frames) must not stack up four old slabs.
func TestReshardReleasesOldTopology(t *testing.T) {
	const frames = 4096
	p := New(Config{Frames: frames, PolicyFactory: replacer.Factories()["2q"], Device: storage.NewMemDevice()})
	s := p.NewSession()
	get := func(i uint64) {
		t.Helper()
		ref, err := p.Get(s, pid(i))
		if err != nil {
			t.Fatal(err)
		}
		ref.Release()
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for i := uint64(1); i <= frames; i++ {
		get(i)
	}
	filled := heap()
	for _, n := range []int{2, 1, 4, 1} {
		if err := p.Reshard(n); err != nil {
			t.Fatalf("Reshard(%d): %v", n, err)
		}
		get(1) // the session rebinds off the old topology
		got := heap()
		if float64(got) > 1.5*float64(filled) {
			t.Fatalf("after Reshard(%d): HeapAlloc %.1f MB, %.2fx the %.1f MB after the fill: an old topology is still reachable",
				n, float64(got)/1e6, float64(got)/float64(filled), float64(filled)/1e6)
		}
		t.Logf("after Reshard(%d): HeapAlloc %.1f MB (%.2fx the fill's)", n, float64(got)/1e6, float64(got)/float64(filled))
	}
	s.Flush()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestIdleSessionHitsSurviveReshard: hits a session staged against a
// topology, and settles only after a whole reshard has retired it, still
// count in Stats — whether the session settles them by Flush or by
// rebinding on its next access.
func TestIdleSessionHitsSurviveReshard(t *testing.T) {
	p, _ := reshardablePool(64, 2, core.Config{Batching: true})
	const pages, rounds = 32, 4
	flusher, getter := p.NewSession(), p.NewSession()
	for _, s := range []*Session{flusher, getter} {
		for r := 0; r <= rounds; r++ {
			for i := uint64(1); i <= pages; i++ {
				ref, err := p.Get(s, pid(i))
				if err != nil {
					t.Fatal(err)
				}
				ref.Release()
			}
		}
	}
	// The first session's first round missed; every other access hit and
	// sits staged in its session (fewer than hitFoldInterval per shard).
	const staged = 2*rounds*pages + pages
	if got := p.Stats().Hits; got >= staged {
		t.Fatalf("Hits=%d before the reshard: the test needs hits still staged", got)
	}
	if err := p.Reshard(4); err != nil {
		t.Fatal(err)
	}
	if p.Stats().Resharding {
		t.Fatal("the old topology is still draining after Reshard returned")
	}
	// Both settle at once, beside a Stats reader.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		flusher.Flush()
	}()
	go func() {
		defer wg.Done()
		ref, err := p.Get(getter, pid(1)) // rebinds: settles the staged hits
		if err != nil {
			t.Error(err)
			return
		}
		ref.Release()
		getter.Flush()
	}()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for polling := true; polling; {
		select {
		case <-done:
			polling = false
		default:
			p.Stats()
		}
	}
	if got, want := p.Stats().Hits, int64(staged+1); got != want {
		t.Fatalf("Hits=%d after both idle sessions settled, want %d: staged hits were lost with the old topology", got, want)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolSwapPolicyLive: swapping the policy on a sharded pool switches
// every shard, keeps the resident pages, updates the recipe used by later
// reshards, and keeps the pool structurally sound.
func TestPoolSwapPolicyLive(t *testing.T) {
	p, _ := reshardablePool(32, 2, core.Config{})
	s := p.NewSession()
	for i := uint64(1); i <= 20; i++ {
		ref, err := p.Get(s, pid(i))
		if err != nil {
			t.Fatal(err)
		}
		ref.Release()
	}

	from, to, err := p.SwapPolicy(func(c int) replacer.Policy { return replacer.NewLIRS(c) })
	if err != nil {
		t.Fatalf("SwapPolicy: %v", err)
	}
	if from != "lru" || to != "lirs" {
		t.Fatalf("swap reported %q -> %q, want lru -> lirs", from, to)
	}
	st := p.Stats()
	for i, ss := range st.PerShard {
		if ss.Policy != "lirs" {
			t.Fatalf("shard %d policy %q after swap, want lirs", i, ss.Policy)
		}
	}
	if st.Resident == 0 {
		t.Fatal("resident set dropped to zero by the swap")
	}

	// Traffic keeps flowing and hits keep landing on the migrated set.
	for i := uint64(1); i <= 20; i++ {
		ref, err := p.Get(s, pid(i))
		if err != nil {
			t.Fatal(err)
		}
		ref.Release()
	}

	// The factory became the pool recipe: a reshard builds lirs shards.
	if err := p.Reshard(4); err != nil {
		t.Fatalf("Reshard after swap: %v", err)
	}
	for i, ss := range p.Stats().PerShard {
		if ss.Policy != "lirs" {
			t.Fatalf("post-reshard shard %d policy %q, want lirs", i, ss.Policy)
		}
	}
	s.Flush()
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestPoolSwapPolicyRefusesSmallerPolicy: a factory whose policies have less
// room than the shards' present ones is refused, since every page a policy
// holds has a frame, or is loading into one, and must stay tracked. The pool
// keeps its policies and its recipe, and keeps serving.
func TestPoolSwapPolicyRefusesSmallerPolicy(t *testing.T) {
	p, _ := reshardablePool(16, 2, core.Config{Batching: true})
	s := p.NewSession()
	get := func(from, to uint64) {
		t.Helper()
		for i := from; i <= to; i++ {
			ref, err := p.GetWrite(s, pid(i))
			if err != nil {
				t.Fatal(err)
			}
			ref.MarkDirty()
			ref.Release()
		}
	}
	get(1, 24)
	if _, _, err := p.SwapPolicy(func(int) replacer.Policy { return replacer.NewLIRS(4) }); err == nil {
		t.Fatal("a swap to policies of capacity 4 in shards of 8 frames succeeded")
	}
	get(25, 60)
	if err := p.Reshard(4); err != nil {
		t.Fatalf("Reshard after a refused swap: %v", err)
	}
	for i, ss := range p.Stats().PerShard {
		if ss.Policy != "lru" {
			t.Fatalf("shard %d policy %q, want lru: the refused factory became the recipe", i, ss.Policy)
		}
	}
	get(1, 30)
	s.Flush()
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestReshardRefusals: argument validation and the modes that refuse.
func TestReshardRefusals(t *testing.T) {
	p, _ := reshardablePool(8, 1, core.Config{})
	if err := p.Reshard(0); err == nil {
		t.Fatal("Reshard(0) succeeded")
	}
	if err := p.Reshard(9); err == nil {
		t.Fatal("Reshard(frames+1) succeeded")
	}
	if err := p.Reshard(1); err != nil {
		t.Fatalf("no-op Reshard(1): %v", err)
	}
	if n := p.Stats().Reshards; n != 0 {
		t.Fatalf("no-op reshard counted: %d", n)
	}
	p.SetReadOnly(true)
	if err := p.Reshard(2); err == nil {
		t.Fatal("Reshard on a read-only pool succeeded")
	}
	p.SetReadOnly(false)
	if err := p.Reshard(2); err != nil {
		t.Fatalf("Reshard after clearing read-only: %v", err)
	}
	if _, _, err := p.SwapPolicy(nil); !errors.Is(err, err) || err == nil {
		t.Fatal("SwapPolicy(nil) succeeded")
	}
}

// TestSetReadOnlyDuringReshardBuild lowers the read-only floor while
// Reshard is still building its new shards, as a drain can during a
// migration. A floor that reached only the shards built after it would
// shed the migration's loads into those shards, and Reshard would spin
// forever; SetReadOnly instead waits the reshard out, then floors every
// shard of the new topology.
func TestSetReadOnlyDuringReshardBuild(t *testing.T) {
	var (
		p       *Pool
		armed   atomic.Bool
		floored = make(chan struct{})
	)
	p = New(Config{
		Frames:        16,
		PolicyFactory: func(c int) replacer.Policy { return replacer.NewLRU(c) },
		Device:        storage.NewMemDevice(),
		WrapShardDevice: func(shard int, base storage.Device) storage.Device {
			if shard == 1 && armed.CompareAndSwap(true, false) {
				go func() { p.SetReadOnly(true); close(floored) }()
				// Give the floor the chance to land mid-build.
				for start := time.Now(); !p.forcedRO.Load() && time.Since(start) < 100*time.Millisecond; {
					runtime.Gosched()
				}
			}
			return base
		},
	})
	s := p.NewSession()
	for i := uint64(1); i <= 12; i++ {
		ref, err := p.Get(s, pid(i))
		if err != nil {
			t.Fatal(err)
		}
		ref.Release()
	}
	s.Flush()

	armed.Store(true)
	resharded := make(chan error, 1)
	go func() { resharded <- p.Reshard(2) }()
	select {
	case err := <-resharded:
		if err != nil {
			t.Fatalf("Reshard(2): %v", err)
		}
	case <-time.After(5 * time.Second):
		go p.SetReadOnly(false) // let the migration drain before failing
		t.Fatal("Reshard wedged: the read-only floor reached only part of the new topology")
	}
	<-floored
	for i := 0; i < 2; i++ {
		if _, err := p.Get(s, idsInShard(p, i, 1, 1000)[0]); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("miss on shard %d under the read-only floor: err=%v, want ErrOverloaded", i, err)
		}
	}
}

// TestReshardOnMutexLookup: the same migration correctness holds on the
// mutex lookup alone — the seqlock probe's fallback, and in a torture build
// the reference the torture differential's locked leg runs.
func TestReshardOnMutexLookup(t *testing.T) {
	referenceLookup(t)
	mem := storage.NewMemDevice()
	p := New(Config{
		Frames:        16,
		PolicyFactory: func(c int) replacer.Policy { return replacer.NewLRU(c) },
		Device:        mem,
	})
	s := p.NewSession()
	for i := uint64(1); i <= 8; i++ {
		dirtyPage(t, p, s, pid(i))
	}
	if err := p.Reshard(4); err != nil {
		t.Fatalf("Reshard(4): %v", err)
	}
	for i := uint64(1); i <= 8; i++ {
		ref, err := p.Get(s, pid(i))
		if err != nil {
			t.Fatal(err)
		}
		if !refStamped(ref, pid(i)+stampShift) {
			t.Fatalf("page %d content lost (locked hit path)", i)
		}
		ref.Release()
	}
	s.Flush()
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}
