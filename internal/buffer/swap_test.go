package buffer

import (
	"testing"

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

// shardedLRUPool builds an LRU pool of frames split into shards.
func shardedLRUPool(frames, shards int, wcfg core.Config) *Pool {
	return New(Config{
		Frames:        frames,
		Shards:        shards,
		PolicyFactory: func(c int) replacer.Policy { return replacer.NewLRU(c) },
		Wrapper:       wcfg,
		Device:        storage.NewMemDevice(),
	})
}

// TestPoolSwapPolicyLive: swapping the policy on a sharded pool switches
// every shard, keeps the resident pages, and keeps the pool structurally
// sound.
func TestPoolSwapPolicyLive(t *testing.T) {
	p := shardedLRUPool(32, 2, core.Config{})
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
	s.Flush()
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestPoolSwapPolicyRefusesSmallerPolicy: a factory whose policies have less
// room than the shards' present ones is refused, since every page a policy
// holds has a frame, or is loading into one, and must stay tracked, and so
// is no factory at all. The pool keeps its policies and keeps serving.
func TestPoolSwapPolicyRefusesSmallerPolicy(t *testing.T) {
	p := shardedLRUPool(16, 2, core.Config{Batching: true})
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
	if _, _, err := p.SwapPolicy(nil); err == nil {
		t.Fatal("SwapPolicy(nil) succeeded")
	}
	if _, _, err := p.SwapPolicy(func(int) replacer.Policy { return replacer.NewLIRS(4) }); err == nil {
		t.Fatal("a swap to policies of capacity 4 in shards of 8 frames succeeded")
	}
	get(25, 60)
	for i, ss := range p.Stats().PerShard {
		if ss.Policy != "lru" {
			t.Fatalf("shard %d policy %q, want lru", i, ss.Policy)
		}
	}
	get(1, 30)
	s.Flush()
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}
