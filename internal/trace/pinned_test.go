package trace

import (
	"testing"

	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/workload"
)

// idLog is a policy seen by id only — its slot-keyed methods hidden, so that
// replacer.BySlot puts the adapter for an id-only policy in front of it, and
// with it the evict → re-admit exchange the adapter makes when a claim
// refuses its victim — and it logs the calls it is driven by, so that its
// state at any point can be rebuilt.
type idLog struct {
	replacer.Policy
	ops []idOp
}

type idOp struct {
	kind byte // 'h' Hit, 'a' Admit, 'e' Evict
	id   page.PageID
}

func (l *idLog) Hit(id page.PageID) { l.ops = append(l.ops, idOp{'h', id}); l.Policy.Hit(id) }
func (l *idLog) Admit(id page.PageID) (page.PageID, bool) {
	l.ops = append(l.ops, idOp{'a', id})
	return l.Policy.Admit(id)
}
func (l *idLog) Evict() (page.PageID, bool) {
	l.ops = append(l.ops, idOp{'e', 0})
	return l.Policy.Evict()
}

// replay drives a fresh policy through ops.
func replay(p replacer.Policy, ops []idOp) {
	for _, op := range ops {
		switch op.kind {
		case 'h':
			p.Hit(op.id)
		case 'a':
			p.Admit(op.id)
		case 'e':
			p.Evict()
		}
	}
}

// pinDrive replays a trace as a buffer pool drives its policy: by frame slot,
// one frame per unit of capacity, and — when the pool is full — an eviction
// through EvictSlot before the missing page is admitted. With pins, the claim
// refuses one resident page in eight, a different eighth at every access.
type pinDrive struct {
	p            replacer.SlotPolicy
	table        map[page.PageID]uint32
	free         []uint32
	pins         bool
	step         int
	hits, misses int
	victims      []page.PageID // by access; InvalidPageID where none was evicted
	claim        func(replacer.Victim) bool
}

func newPinDrive(p replacer.SlotPolicy, pins bool, accesses int) *pinDrive {
	d := &pinDrive{p: p, table: make(map[page.PageID]uint32), pins: pins, victims: make([]page.PageID, accesses)}
	for s := p.Cap() - 1; s >= 0; s-- {
		d.free = append(d.free, uint32(s))
	}
	d.claim = func(v replacer.Victim) bool { return !d.pinned(v.ID) }
	return d
}

// pinned decides from the page and the access alone, so that every drive of
// one comparison pins the same pages wherever it holds them.
func (d *pinDrive) pinned(id page.PageID) bool {
	h := (uint64(id) ^ uint64(d.step)*0x9e3779b97f4a7c15) * 0xff51afd7ed558ccd
	return d.pins && h>>61 == 0
}

// access serves the trace's next access; before evicts, it is called with
// the drive as it stands.
func (d *pinDrive) access(id page.PageID, before func()) {
	defer func() { d.step++ }()
	if slot, ok := d.table[id]; ok {
		d.hits++
		d.p.HitSlot(slot, id)
		return
	}
	d.misses++
	if len(d.free) == 0 {
		if before != nil {
			before()
		}
		v, ok := d.p.EvictSlot(d.claim)
		if !ok {
			return // nothing claimable: served uncached
		}
		delete(d.table, v.ID)
		d.free = append(d.free, v.Slot)
		d.victims[d.step] = v.ID
	}
	slot := d.free[len(d.free)-1]
	d.free = d.free[:len(d.free)-1]
	d.table[id] = slot
	d.p.AdmitSlot(slot, id)
}

func (d *pinDrive) hitRatio() float64 { return float64(d.hits) / float64(d.hits+d.misses) }

// TestPinnedEvictionDistortion prices the evict → re-admit exchange that
// replacer.BySlot still makes for a policy without slot-keyed methods (the
// benchmark's tracing decorator is one), over E9's workloads, with one
// resident page in eight pinned at random. Each policy is driven by id
// through the adapter, where a refused victim is re-admitted with a fresh
// rank, and, in lockstep with the same pins, natively, where EvictSlot skips
// a pinned page where it stands. With -v it logs three figures:
//
//   - same state: at sampled evictions of the exchange, how often the walk,
//     asked from an identical copy of the exchange's policy, would have taken
//     another page;
//   - lockstep: of the accesses on which either drive evicted, how often the
//     two did not evict the same page — the ranks the exchange resets keep
//     the two apart;
//   - the hit ratio of each, and the gap.
//
// It gates nothing but the control, which runs without -v too: with nothing
// pinned the two drives must agree exactly.
func TestPinnedEvictionDistortion(t *testing.T) {
	for _, trace := range []struct {
		workload string
		txns     int
	}{{"tpcw", 100}, {"tpcc", 50}, {"tablescan", 10}} {
		w, err := workload.ByName(trace.workload)
		if err != nil {
			t.Fatal(err)
		}
		tr := Record(w, 16, trace.txns, 1)
		for _, div := range []int{16, 4} {
			capacity := tr.DistinctPages() / div
			for _, name := range replacer.Names() {
				n, e, _, _ := pricePins(tr, name, capacity, false)
				if c, _ := differing(n.victims, e.victims); c != 0 || n.hits != e.hits {
					t.Errorf("%s/%s/cap=%d: with nothing pinned the exchange and the walk disagree", name, trace.workload, capacity)
				}
				if !testing.Verbose() {
					continue
				}
				n, e, sampled, sameDiffer := pricePins(tr, name, capacity, true)
				diff, of := differing(n.victims, e.victims)
				t.Logf("%-9s %-9s cap=%-5d same state %5.1f%% of %-3d  lockstep %5.1f%% of %-6d  hit ratio walk %.4f exchange %.4f gap %+.4f",
					name, trace.workload, capacity, pct(sameDiffer, sampled), sampled, pct(diff, of), of,
					n.hitRatio(), e.hitRatio(), e.hitRatio()-n.hitRatio())
			}
		}
	}
}

// pricePins replays tr through policy name natively and through the
// exchange, in lockstep. With pins, the first eviction of the exchange past
// each 24th of the trace is also put to the walk, from a copy rebuilt from
// the exchange's log; sameDiffer counts those on which the two differ.
func pricePins(tr *Trace, name string, capacity int, pins bool) (native, exchange *pinDrive, sampled, sameDiffer int) {
	fresh := func() replacer.Policy { p, _ := replacer.New(name, capacity); return p }
	log := &idLog{Policy: fresh()}
	native = newPinDrive(fresh().(replacer.SlotPolicy), pins, tr.Len())
	exchange = newPinDrive(replacer.BySlot(log), pins, tr.Len())
	stride := tr.Len() / 24
	next := stride
	var want page.PageID
	sample := func() {
		if !pins || exchange.step < next {
			return
		}
		next += stride
		copyOf := fresh()
		replay(copyOf, log.ops)
		v, _ := copyOf.(replacer.SlotPolicy).EvictSlot(exchange.claim)
		want = v.ID
	}
	for i, a := range tr.Accesses {
		native.access(a.Page, nil)
		want = page.InvalidPageID
		exchange.access(a.Page, sample)
		if want.Valid() {
			sampled++
			if want != exchange.victims[i] {
				sameDiffer++
			}
		}
	}
	return native, exchange, sampled, sameDiffer
}

// differing compares two victim sequences access by access: of the accesses
// on which either drive evicted, it counts those on which the two did not
// evict the same page.
func differing(a, b []page.PageID) (diff, of int) {
	for i := range a {
		if a[i].Valid() || b[i].Valid() {
			of++
			if a[i] != b[i] {
				diff++
			}
		}
	}
	return diff, of
}

func pct(n, of int) float64 { return 100 * float64(n) / float64(max(1, of)) }
