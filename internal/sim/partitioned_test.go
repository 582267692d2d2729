package sim

import (
	"math/rand"
	"testing"

	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
)

// TestPartitionedUnevenSplit pins the capacity division when capacity is
// not a multiple of k: base = capacity/k everywhere, and exactly
// capacity%k partitions — the FIRST ones — get one extra slot, so the
// split is deterministic, sums to the requested capacity, and never
// leaves a zero-capacity partition.
func TestPartitionedUnevenSplit(t *testing.T) {
	cases := []struct {
		capacity, k int
		want        []int
	}{
		{7, 3, []int{3, 2, 2}},
		{10, 4, []int{3, 3, 2, 2}},
		{5, 5, []int{1, 1, 1, 1, 1}},
		{9, 2, []int{5, 4}},
		{64, 7, []int{10, 9, 9, 9, 9, 9, 9}},
	}
	for _, c := range cases {
		p := NewPartitioned(c.capacity, c.k, func(n int) replacer.Policy { return replacer.NewLRU(n) })
		if p.Cap() != c.capacity {
			t.Errorf("cap=%d k=%d: Cap()=%d", c.capacity, c.k, p.Cap())
		}
		for i, part := range p.parts {
			if part.Cap() != c.want[i] {
				t.Errorf("cap=%d k=%d: partition %d has capacity %d, want %d",
					c.capacity, c.k, i, part.Cap(), c.want[i])
			}
			if part.Cap() < 1 {
				t.Errorf("cap=%d k=%d: partition %d has zero capacity", c.capacity, c.k, i)
			}
		}
	}
}

// TestPartitionedEvictSkipsEmpty fills a single partition and drains the
// whole policy: Evict must skip the empty partitions, return every page
// of the occupied one, and then report exhaustion — regardless of where
// the round-robin cursor starts.
func TestPartitionedEvictSkipsEmpty(t *testing.T) {
	p := NewPartitioned(12, 4, func(n int) replacer.Policy { return replacer.NewLRU(n) })

	// Collect three pages that all hash to the same partition.
	var same []page.PageID
	owner := -1
	for b := uint64(0); len(same) < 3; b++ {
		id := pid(b)
		if owner == -1 {
			owner = p.Partition(id)
		}
		if p.Partition(id) == owner {
			same = append(same, id)
		}
	}
	for _, id := range same {
		if _, evicted := p.Admit(id); evicted {
			t.Fatalf("admit %d evicted inside a 3-slot partition", id)
		}
	}

	// Start the cursor away from the owning partition so Evict has to walk
	// past at least one empty partition before finding a victim.
	p.rr = (owner + 1) % p.Partitions()
	seen := map[page.PageID]bool{}
	for i := 0; i < 3; i++ {
		v, ok := p.Evict()
		if !ok {
			t.Fatalf("Evict #%d found nothing with %d pages resident", i, 3-i)
		}
		if p.Partition(v) != owner {
			t.Fatalf("Evict returned %d from partition %d, only partition %d is populated",
				v, p.Partition(v), owner)
		}
		if seen[v] {
			t.Fatalf("Evict returned %d twice", v)
		}
		seen[v] = true
	}
	if v, ok := p.Evict(); ok {
		t.Fatalf("Evict returned %d from a drained policy", v)
	}
	if p.Len() != 0 {
		t.Fatalf("Len()=%d after draining", p.Len())
	}
}

// TestPartitionedEvictRoundRobin checks that consecutive evictions with
// every partition populated rotate across partitions instead of draining
// one before touching the next — the fairness property the cursor exists
// for.
func TestPartitionedEvictRoundRobin(t *testing.T) {
	const k = 4
	p := NewPartitioned(4*k, k, func(n int) replacer.Policy { return replacer.NewLRU(n) })
	// Two resident pages per partition.
	count := make([]int, k)
	for b := uint64(0); ; b++ {
		id := pid(b)
		part := p.Partition(id)
		if count[part] >= 2 {
			continue
		}
		p.Admit(id)
		count[part]++
		done := true
		for _, c := range count {
			if c < 2 {
				done = false
			}
		}
		if done {
			break
		}
	}
	// The first k evictions must hit k distinct partitions.
	hit := map[int]bool{}
	for i := 0; i < k; i++ {
		v, ok := p.Evict()
		if !ok {
			t.Fatalf("Evict #%d failed with every partition populated", i)
		}
		part := p.Partition(v)
		if hit[part] {
			t.Fatalf("Evict #%d returned partition %d again before visiting all %d partitions", i, part, k)
		}
		hit[part] = true
	}
}

// TestPartitionedRemoveContainsRouting verifies Remove and Contains reach
// only the hash-owning partition: removing a page makes exactly that page
// non-resident, and a Remove of an id owned by a different partition
// cannot disturb a resident page that shares no partition with it.
func TestPartitionedRemoveContainsRouting(t *testing.T) {
	p := NewPartitioned(16, 4, func(n int) replacer.Policy { return replacer.NewLRU(n) })

	// Find two pages owned by different partitions.
	a := pid(0)
	var b page.PageID
	for n := uint64(1); ; n++ {
		if p.Partition(pid(n)) != p.Partition(a) {
			b = pid(n)
			break
		}
	}
	p.Admit(a)
	p.Admit(b)
	if !p.Contains(a) || !p.Contains(b) {
		t.Fatal("admitted pages not resident")
	}
	// Contains consults only the owner: the owning sub-policy answers true,
	// and every other partition would answer false for the same id.
	for i, part := range p.parts {
		want := i == p.Partition(a)
		if part.Contains(a) != want {
			t.Fatalf("partition %d Contains(a)=%v, owner is %d", i, part.Contains(a), p.Partition(a))
		}
	}

	p.Remove(a)
	if p.Contains(a) {
		t.Fatal("Remove(a) left a resident")
	}
	if !p.Contains(b) {
		t.Fatal("Remove(a) disturbed b in another partition")
	}
	if p.Len() != 1 {
		t.Fatalf("Len()=%d after removing one of two pages", p.Len())
	}
	// Removing an id that is not resident anywhere is a no-op.
	p.Remove(a)
	if !p.Contains(b) || p.Len() != 1 {
		t.Fatal("double Remove disturbed unrelated state")
	}
}

// TestPartitionedNameStability checks Name is derived from the
// sub-policy, is stable across operations, and does not vary with k.
func TestPartitionedNameStability(t *testing.T) {
	for _, k := range []int{1, 3, 8} {
		p := NewPartitioned(16, k, func(n int) replacer.Policy { return replacer.NewTwoQ(n) })
		want := "partitioned-" + replacer.NewTwoQ(16).Name()
		if p.Name() != want {
			t.Fatalf("k=%d: Name()=%q, want %q", k, p.Name(), want)
		}
		for b := uint64(0); b < 40; b++ {
			p.Admit(pid(b))
		}
		p.Evict()
		if p.Name() != want {
			t.Fatalf("k=%d: Name() changed to %q after operations", k, p.Name())
		}
	}
}

// TestSEQLoseDetectionWhenPartitioned is Section V-A's argument made
// executable: hash-partitioning the buffer hides block adjacency from each
// partition, SEQ's detector never fires, and the scan evicts the hot set.
func TestSEQLoseDetectionWhenPartitioned(t *testing.T) {
	run := func(p replacer.Policy) (hotSurvived int, scanMarked bool) {
		hot := make([]page.PageID, 24)
		for i := range hot {
			hot[i] = page.NewPageID(1, uint64(i*37+5))
			p.Admit(hot[i])
			p.Hit(hot[i])
			p.Hit(hot[i])
		}
		for b := uint64(0); b < 400; b++ {
			if !p.Contains(page.NewPageID(2, b)) {
				p.Admit(page.NewPageID(2, b))
			}
		}
		for _, id := range hot {
			if p.Contains(id) {
				hotSurvived++
			}
		}
		switch s := p.(type) {
		case *replacer.SEQ:
			scanMarked = s.ScanResident() > 0
		case *Partitioned:
			for _, part := range s.parts {
				if part.(*replacer.SEQ).ScanResident() > 0 {
					scanMarked = true
				}
			}
		}
		return hotSurvived, scanMarked
	}

	global, globalMarked := run(replacer.NewSEQ(64))
	part, partMarked := run(NewPartitioned(64, 8, func(c int) replacer.Policy { return replacer.NewSEQ(c) }))

	if !globalMarked {
		t.Fatal("global SEQ failed to detect the scan")
	}
	if partMarked {
		t.Fatal("partitioned SEQ detected the scan; partitioning should hide adjacency")
	}
	if global <= part {
		t.Fatalf("global SEQ kept %d/24 hot pages, partitioned kept %d — partitioning should hurt",
			global, part)
	}
	if global < 20 {
		t.Fatalf("global SEQ kept only %d/24 hot pages through the scan", global)
	}
}

// TestPartitionedInvariants replays a Zipf trace through the partitioned
// wrapper over several sub-policies against a residency model, the check
// package replacer runs on each of its own policies: Contains agrees with
// the model at every step, a victim was resident and is never the page
// being admitted, and Len tracks the model and never exceeds Cap.
func TestPartitionedInvariants(t *testing.T) {
	for _, sub := range []string{"lru", "2q", "lirs", "clock"} {
		sub := sub
		t.Run(sub, func(t *testing.T) {
			p := NewPartitioned(64, 8, replacer.Factories()[sub])
			z := rand.NewZipf(rand.New(rand.NewSource(13)), 1.2, 1, 799)
			resident := make(map[page.PageID]bool)
			for i := 0; i < 20000; i++ {
				id := pid(z.Uint64())
				if p.Contains(id) != resident[id] {
					t.Fatalf("step %d: Contains(%v)=%v, model says %v", i, id, p.Contains(id), resident[id])
				}
				if resident[id] {
					p.Hit(id)
				} else {
					if victim, evicted := p.Admit(id); evicted {
						if victim == id || !resident[victim] {
							t.Fatalf("step %d: Admit(%v) evicted %v (resident=%v)", i, id, victim, resident[victim])
						}
						delete(resident, victim)
					}
					resident[id] = true
				}
				if p.Len() != len(resident) || p.Len() > p.Cap() {
					t.Fatalf("step %d: Len()=%d, model has %d, Cap()=%d", i, p.Len(), len(resident), p.Cap())
				}
			}
		})
	}
}

// TestPartitionedRouting checks a page always lands in the same partition
// and capacities split evenly.
func TestPartitionedRouting(t *testing.T) {
	p := NewPartitioned(10, 3, func(c int) replacer.Policy { return replacer.NewLRU(c) })
	if p.Cap() != 10 {
		t.Fatalf("Cap()=%d", p.Cap())
	}
	caps := []int{p.parts[0].Cap(), p.parts[1].Cap(), p.parts[2].Cap()}
	if caps[0]+caps[1]+caps[2] != 10 || caps[0] < 3 || caps[0] > 4 {
		t.Fatalf("capacity split %v", caps)
	}
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		id := pid(r.Uint64() % 1000)
		a := p.Partition(id)
		b := p.Partition(id)
		if a != b {
			t.Fatal("routing not stable")
		}
	}
	if p.Partitions() != 3 {
		t.Fatalf("Partitions()=%d", p.Partitions())
	}
}

// TestPartitionedLocalEviction checks the imbalance drawback: a partition
// evicts even while others are empty.
func TestPartitionedLocalEviction(t *testing.T) {
	p := NewPartitioned(8, 4, func(c int) replacer.Policy { return replacer.NewLRU(c) })
	// Find three pages that hash to the same partition.
	var same []page.PageID
	want := -1
	for b := uint64(0); len(same) < 3; b++ {
		id := pid(b)
		if want == -1 {
			want = p.Partition(id)
		}
		if p.Partition(id) == want {
			same = append(same, id)
		}
	}
	p.Admit(same[0])
	p.Admit(same[1])
	_, evicted := p.Admit(same[2])
	if !evicted {
		t.Fatal("third page in a 2-slot partition did not evict despite 6 free slots elsewhere")
	}
}

// TestPartitionedValidation checks constructor bounds.
func TestPartitionedValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewPartitioned(0, 1, func(c int) replacer.Policy { return replacer.NewLRU(c) }) },
		func() { NewPartitioned(4, 0, func(c int) replacer.Policy { return replacer.NewLRU(c) }) },
		func() { NewPartitioned(4, 5, func(c int) replacer.Policy { return replacer.NewLRU(c) }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid config accepted")
				}
			}()
			fn()
		}()
	}
}

// TestPartitionedConformsToPolicyContract holds the partitioned wrapper to
// the contract every replacer.Policy is held to.
func TestPartitionedConformsToPolicyContract(t *testing.T) {
	replacer.CheckPolicy(t, func(c int) replacer.Policy {
		return NewPartitioned(c, min(c, 2), replacer.Factories()["2q"])
	})
}
