package replacer

import (
	"fmt"
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

// TestCheckPolicyCatches shows the kit's teeth: each way of breaking the
// contract is reported, in the terms the contract is stated in.
func TestCheckPolicyCatches(t *testing.T) {
	for want, broken := range map[string]func(*brokenLRU){
		"calls that should change nothing":  func(p *brokenLRU) { p.phantomHits = true },
		"with stale slots":                  func(p *brokenLRU) { p.staleSlots = true },
		"after a page was admitted and rem": func(p *brokenLRU) { p.rememberRemoved = true },
		"when its hits come in batches":     func(p *brokenLRU) { p.fifo = true },
	} {
		var f failures
		func() {
			defer func() {
				if r := recover(); r != nil && r != &f {
					panic(r)
				}
			}()
			CheckPolicy(&f, func(c int) Policy {
				p := &brokenLRU{LRU: NewLRU(c), removed: map[PageID]bool{}}
				broken(p)
				return p
			})
		}()
		if got := strings.Join(f.msgs, "\n"); !strings.Contains(got, want) {
			t.Errorf("a policy broken so that it gives up different pages %q...: CheckPolicy reported\n%s", want, got)
		}
	}
}
