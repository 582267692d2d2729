package replacer

import "testing"

// nodeReusers are the list-based policies: they take the node an eviction
// or a ghost trim has just dropped for the page being admitted (spareNodes
// in list.go), so at capacity they admit without allocating. The others
// keep per-page state of their own shape and are not held to it.
var nodeReusers = map[string]bool{
	"arc": true, "car": true, "fifo": true, "lfu": true,
	"lru": true, "mq": true, "seq": true, "2q": true,
}

// TestPolicyOpsDoNotAllocate holds every policy to an allocation-free Hit,
// and the list-based ones to an allocation-free Admit once full — the state
// a buffer pool keeps them in. Both run under the policy lock, so an
// allocation there is paid with everybody else waiting.
func TestPolicyOpsDoNotAllocate(t *testing.T) {
	const capacity = 64
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			pol, _ := New(name, capacity)
			// Warm up through twenty capacities of fresh pages with hits in
			// between: ghost queues fill, maps and LRU-2's heap reach their
			// steady size.
			next := uint64(1)
			admit := func() {
				pol.Admit(tid(next))
				next++
			}
			resident := make([]PageID, 0, capacity)
			for i := 0; i < 20*capacity; i++ {
				admit()
				pol.Hit(tid(next - 1))
			}
			for id := next - 1; len(resident) < capacity && id > 0; id-- {
				if pid := tid(id); pol.Contains(pid) {
					resident = append(resident, pid)
				}
			}
			if len(resident) == 0 {
				t.Fatal("nothing resident after warm-up")
			}
			i := 0
			if n := testing.AllocsPerRun(50*capacity, func() {
				pol.Hit(resident[i%len(resident)])
				i++
			}); n != 0 {
				t.Errorf("Hit allocates %.2f times per call, want 0", n)
			}
			if !nodeReusers[name] {
				return
			}
			if pol.Len() != pol.Cap() {
				t.Fatalf("policy holds %d of %d pages after warm-up", pol.Len(), pol.Cap())
			}
			if n := testing.AllocsPerRun(50*capacity, admit); n != 0 {
				t.Errorf("Admit at capacity allocates %.2f times per call, want 0", n)
			}
		})
	}
}

// TestSpareNodesReuse pins the chain itself: a dropped node comes back
// clean, newest first, and an empty chain falls back to a fresh node.
func TestSpareNodesReuse(t *testing.T) {
	var s spareNodes
	a := &node{id: 1, count: 7, hot: true, ghost: true, ref: true, level: 3, tick: 9}
	b := &node{id: 2}
	s.put(a)
	s.put(b)
	if got := s.get(10); got != b || got.id != 10 || got.next != nil {
		t.Fatalf("first get = %+v, want node b relabelled 10", got)
	}
	got := s.get(11)
	if got != a {
		t.Fatal("second get did not return node a")
	}
	if *got != (node{id: 11}) {
		t.Fatalf("reused node carries old metadata: %+v", *got)
	}
	if fresh := s.get(12); fresh == a || fresh == b || *fresh != (node{id: 12}) {
		t.Fatalf("get on an empty chain = %+v, want a fresh node", fresh)
	}
}
