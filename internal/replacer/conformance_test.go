package replacer

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestCheckPolicy holds all thirteen algorithms to the contract, by id and
// by slot.
func TestCheckPolicy(t *testing.T) {
	for name, factory := range Factories() {
		t.Run(name, func(t *testing.T) { CheckPolicy(t, factory) })
	}
}

// idOnly is a policy as one from outside this package looks: the portable
// contract and nothing else.
type idOnly struct{ Policy }

// TestCheckPolicyWithoutSlots runs the kit over a policy that has no
// slot-keyed methods, directly and behind the adapter the buffer pool would
// put in front of it.
func TestCheckPolicyWithoutSlots(t *testing.T) {
	CheckPolicy(t, func(c int) Policy { return idOnly{NewTwoQ(c)} })
	CheckPolicy(t, func(c int) Policy { return BySlot(idOnly{NewLIRS(c)}) })
}

// failures collects what CheckPolicy reports instead of failing the test.
type failures struct{ msgs []string }

func (f *failures) Helper() {}
func (f *failures) Errorf(format string, args ...any) {
	f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
}
func (f *failures) Fatalf(format string, args ...any) { f.Errorf(format, args...); panic(f) }

// brokenLRU breaks the contract one way at a time.
type brokenLRU struct {
	*LRU
	phantomHits, staleSlots, rememberRemoved bool
	// fifo ignores hits, as FIFO does, but overrides only Hit and HitSlot:
	// the batch form is LRU's, inherited.
	fifo    bool
	removed map[PageID]bool
}

func (p *brokenLRU) Hit(id PageID) {
	if p.fifo {
		return
	}
	if p.phantomHits && !p.Contains(id) && p.Len() > 0 {
		p.lst.moveToFront(p.lst.back()) // a hit on a page that is not there moves one that is
	}
	p.LRU.Hit(id)
}

func (p *brokenLRU) HitSlot(slot uint32, id PageID) {
	if p.fifo {
		return
	}
	if p.staleSlots && int(slot) < len(p.slots) && p.slots[slot].flags == fLive {
		id = p.slots[slot].id // believes the slot, not the id
	}
	p.LRU.HitSlot(slot, id)
}

func (p *brokenLRU) Remove(id PageID) {
	if p.rememberRemoved && p.Contains(id) {
		p.removed[id] = true
	}
	p.LRU.Remove(id)
}

func (p *brokenLRU) Admit(id PageID) (PageID, bool) {
	v, ok := p.LRU.Admit(id)
	if p.removed[id] {
		p.LRU.Hit(v) // a page once removed is not admitted as a stranger would be
		p.lst.moveToBack(p.lst.front())
	}
	return v, ok
}

// boundedStub is a policy whose Admit enforces a bound tighter than the
// capacity it reports (think 2Q's A1in): it gives up its oldest page whenever
// bound pages are resident. A buffer pool, which drives it by slot through
// BySlot, admits into a free frame and expects no victim, so CheckPolicy must
// reject it.
type boundedStub struct {
	cap, bound int
	fifo       []PageID
}

func (p *boundedStub) Name() string            { return "bounded-stub" }
func (p *boundedStub) Cap() int                { return p.cap }
func (p *boundedStub) Len() int                { return len(p.fifo) }
func (p *boundedStub) Contains(id PageID) bool { return slices.Contains(p.fifo, id) }
func (p *boundedStub) Hit(PageID)              {}
func (p *boundedStub) Admit(id PageID) (victim PageID, evicted bool) {
	if p.Contains(id) {
		panic("bounded-stub: Admit of a resident page")
	}
	if len(p.fifo) >= p.bound {
		victim, evicted = p.fifo[0], true
		p.fifo = p.fifo[1:]
	}
	p.fifo = append(p.fifo, id)
	return victim, evicted
}
func (p *boundedStub) Evict() (PageID, bool) {
	if len(p.fifo) == 0 {
		return 0, false
	}
	v := p.fifo[0]
	p.fifo = p.fifo[1:]
	return v, true
}
func (p *boundedStub) Remove(id PageID) {
	if i := slices.Index(p.fifo, id); i >= 0 {
		p.fifo = slices.Delete(p.fifo, i, i+1)
	}
}

// TestCheckPolicyCatches shows the kit's teeth: each way of breaking the
// contract is reported, in the terms the contract is stated in.
func TestCheckPolicyCatches(t *testing.T) {
	broken := func(breaks func(*brokenLRU)) Factory {
		return func(c int) Policy {
			p := &brokenLRU{LRU: NewLRU(c), removed: map[PageID]bool{}}
			breaks(p)
			return p
		}
	}
	for want, factory := range map[string]Factory{
		"calls that should change nothing":  broken(func(p *brokenLRU) { p.phantomHits = true }),
		"with stale slots":                  broken(func(p *brokenLRU) { p.staleSlots = true }),
		"after a page was admitted and rem": broken(func(p *brokenLRU) { p.rememberRemoved = true }),
		"when its hits come in batches":     broken(func(p *brokenLRU) { p.fifo = true }),
		"below capacity":                    func(c int) Policy { return BySlot(&boundedStub{cap: c, bound: (c + 1) / 2}) },
	} {
		var f failures
		func() {
			defer func() {
				if r := recover(); r != nil && r != &f {
					panic(r)
				}
			}()
			CheckPolicy(&f, factory)
		}()
		if got := strings.Join(f.msgs, "\n"); !strings.Contains(got, want) {
			t.Errorf("CheckPolicy missed a policy that fails %q; it reported\n%s", want, got)
		}
	}
}
