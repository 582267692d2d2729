package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bpwrapper"
)

// The traced pass measures the layers from outside the program: the harness
// wraps what it hands in (the Device and the Policy) and clocks its own
// calls into Pool and CacheClient. Nothing inside bpwrapper is touched, so
// the ledger survives any internal refactor.

var epoch = time.Now()

// now is the harness clock: monotonic nanoseconds since process start.
func now() int64 { return int64(time.Since(epoch)) }

const (
	clockEvery  = 16      // decorators clock one call in sixteen
	sampleEvery = 64      // one request in sixty-four keeps its spans
	maxSpans    = 1 << 15 // per span log; a sample, not a recording
	reqIDShift  = 48      // request id = (worker+1)<<48 | sequence
)

// meter counts every call and accumulates the clocked ones. Callers are
// serialised by the policy lock, so plain fields suffice; read it only
// under that lock or after the pool has quiesced.
type meter struct{ calls, clocked, ns int64 }

// atomicMeter is the same for calls that run concurrently (device I/O, the
// lock-free Prefetch walk, Hit on a LockFreeHit policy).
type atomicMeter struct{ calls, clocked, ns atomic.Int64 }

func (m *atomicMeter) snapshot() meter {
	return meter{calls: m.calls.Load(), clocked: m.clocked.Load(), ns: m.ns.Load()}
}

// estimateNS scales the clocked calls up to all calls, taking the cost of
// the clock itself out of each clocked interval.
func (m meter) estimateNS(clockNS float64) float64 {
	if m.clocked == 0 {
		return 0
	}
	per := float64(m.ns)/float64(m.clocked) - clockNS
	if per < 0 {
		per = 0
	}
	return per * float64(m.calls)
}

func (m meter) plus(o meter) meter {
	return meter{calls: m.calls + o.calls, clocked: m.clocked + o.clocked, ns: m.ns + o.ns}
}

// A span is one clocked call at a layer boundary. Request spans are the
// harness's own calls; decorator spans get their parent by time containment
// when the trace is written, because the harness cannot see which request a
// call inside the program belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"request"`
}

type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(name string, start, end int64) {
	l.mu.Lock()
	if len(l.spans) < maxSpans {
		l.spans = append(l.spans, span{Name: name, Start: start, End: end})
	}
	l.mu.Unlock()
}

// tracer is shared by the decorators of one traced pass.
type tracer struct {
	// open counts sampled requests in flight; while it is non-zero every
	// decorator call is recorded as a span, so a sampled request keeps all
	// its children.
	open atomic.Int32
	log  spanLog

	policies []*tracedPolicy // one per shard the pool built
	polMu    sync.Mutex
	read     atomicMeter
	write    atomicMeter
}

// begin counts one call on a meter and decides whether it is clocked for the
// estimate (one in clockEvery) and whether it is recorded as a span (while a
// sampled request is open); end books what begin started. The meter is the
// only thing that differs between serialised and concurrent callers.
func (t *tracer) begin(calls int64) (t0 int64, est, rec bool) {
	est, rec = calls%clockEvery == 0, t.open.Load() > 0
	if est || rec {
		t0 = now()
	}
	return t0, est, rec
}

func (t *tracer) end(name string, t0 int64, rec bool) (dt int64) {
	t1 := now()
	if rec {
		t.log.add(name, t0, t1)
	}
	return t1 - t0
}

func (m *meter) begin(t *tracer) (t0 int64, est, rec bool) {
	m.calls++
	return t.begin(m.calls)
}

func (m *meter) end(t *tracer, name string, t0 int64, est, rec bool) {
	if !est && !rec {
		return
	}
	if dt := t.end(name, t0, rec); est {
		m.clocked++
		m.ns += dt
	}
}

func (m *atomicMeter) begin(t *tracer) (t0 int64, est, rec bool) {
	return t.begin(m.calls.Add(1))
}

func (m *atomicMeter) end(t *tracer, name string, t0 int64, est, rec bool) {
	if !est && !rec {
		return
	}
	if dt := t.end(name, t0, rec); est {
		m.clocked.Add(1)
		m.ns.Add(dt)
	}
}

// tracedDevice times the storage layer.
type tracedDevice struct {
	inner bpwrapper.Device
	t     *tracer
}

func (d *tracedDevice) ReadPage(id bpwrapper.PageID, p *bpwrapper.Page) error {
	t0, est, rec := d.t.read.begin(d.t)
	err := d.inner.ReadPage(id, p)
	d.t.read.end(d.t, "storage.ReadPage", t0, est, rec)
	return err
}

func (d *tracedDevice) WritePage(p *bpwrapper.Page) error {
	t0, est, rec := d.t.write.begin(d.t)
	err := d.inner.WritePage(p)
	d.t.write.end(d.t, "storage.WritePage", t0, est, rec)
	return err
}

func (d *tracedDevice) Stats() bpwrapper.DeviceStats { return d.inner.Stats() }

// tracedPolicy times the replacer layer. It forwards the two optional
// interfaces the pool and the wrapper probe for, so wrapping changes no
// behaviour: Prefetch (replacer.Prefetcher) and HitIsLockFree
// (replacer.LockFreeHit).
type tracedPolicy struct {
	inner    bpwrapper.Policy
	pre      bpwrapper.Prefetcher // nil when inner has none
	lockFree bool
	t        *tracer

	locked   meter       // Hit/Admit/Evict/Remove under the policy lock
	unlocked atomicMeter // Prefetch, and Hit when lockFree
}

type lockFreeHit interface{ HitIsLockFree() bool }

// tracePolicy wraps p. The result implements Prefetcher only if p does.
func (t *tracer) tracePolicy(p bpwrapper.Policy) bpwrapper.Policy {
	tp := &tracedPolicy{inner: p, t: t}
	if lf, ok := p.(lockFreeHit); ok {
		tp.lockFree = lf.HitIsLockFree()
	}
	t.polMu.Lock()
	t.policies = append(t.policies, tp)
	t.polMu.Unlock()
	if pre, ok := p.(bpwrapper.Prefetcher); ok {
		tp.pre = pre
		return &tracedPrefetchPolicy{tp}
	}
	return tp
}

type tracedPrefetchPolicy struct{ *tracedPolicy }

func (p *tracedPrefetchPolicy) Prefetch(ids []bpwrapper.PageID) {
	t0, est, rec := p.unlocked.begin(p.t)
	p.pre.Prefetch(ids)
	p.unlocked.end(p.t, "replacer.Prefetch", t0, est, rec)
}

func (p *tracedPolicy) Name() string                      { return p.inner.Name() }
func (p *tracedPolicy) Cap() int                          { return p.inner.Cap() }
func (p *tracedPolicy) Len() int                          { return p.inner.Len() }
func (p *tracedPolicy) Contains(id bpwrapper.PageID) bool { return p.inner.Contains(id) }
func (p *tracedPolicy) HitIsLockFree() bool               { return p.lockFree }

func (p *tracedPolicy) Hit(id bpwrapper.PageID) {
	if p.lockFree {
		t0, est, rec := p.unlocked.begin(p.t)
		p.inner.Hit(id)
		p.unlocked.end(p.t, "replacer.Hit", t0, est, rec)
		return
	}
	t0, est, rec := p.locked.begin(p.t)
	p.inner.Hit(id)
	p.locked.end(p.t, "replacer.Hit", t0, est, rec)
}

func (p *tracedPolicy) Admit(id bpwrapper.PageID) (bpwrapper.PageID, bool) {
	t0, est, rec := p.locked.begin(p.t)
	v, ok := p.inner.Admit(id)
	p.locked.end(p.t, "replacer.Admit", t0, est, rec)
	return v, ok
}

func (p *tracedPolicy) Evict() (bpwrapper.PageID, bool) {
	t0, est, rec := p.locked.begin(p.t)
	v, ok := p.inner.Evict()
	p.locked.end(p.t, "replacer.Evict", t0, est, rec)
	return v, ok
}

func (p *tracedPolicy) Remove(id bpwrapper.PageID) {
	t0, est, rec := p.locked.begin(p.t)
	p.inner.Remove(id)
	p.locked.end(p.t, "replacer.Remove", t0, est, rec)
}

// reset zeroes the meters and drops the spans: the warm-up is not part of
// the ledger. The policy lock orders it against the serialised policy calls.
func (t *tracer) reset(pool *bpwrapper.Pool) {
	t.polMu.Lock()
	defer t.polMu.Unlock()
	pool.Wrapper().Locked(func(bpwrapper.Policy) {
		for _, p := range t.policies {
			p.locked = meter{}
		}
	})
	for _, p := range t.policies {
		p.unlocked = atomicMeter{}
	}
	t.read, t.write = atomicMeter{}, atomicMeter{}
	t.log.mu.Lock()
	t.log.spans = t.log.spans[:0]
	t.log.mu.Unlock()
}

// collect returns the replacer and storage meters and the decorator spans
// since the last reset.
func (t *tracer) collect(pool *bpwrapper.Pool) (replacer, storage meter, spans []span) {
	t.polMu.Lock()
	defer t.polMu.Unlock()
	pool.Wrapper().Locked(func(bpwrapper.Policy) {
		for _, p := range t.policies {
			replacer = replacer.plus(p.locked)
		}
	})
	for _, p := range t.policies {
		replacer = replacer.plus(p.unlocked.snapshot())
	}
	t.log.mu.Lock()
	spans = append(spans, t.log.spans...)
	t.log.mu.Unlock()
	return replacer, t.read.snapshot().plus(t.write.snapshot()), spans
}

// writeTrace resolves decorator spans to the sampled request that contains
// them and writes the sample as JSON.
func writeTrace(path string, requests, inner []span) error {
	sort.Slice(requests, func(i, j int) bool { return requests[i].Start < requests[j].Start })
	next := uint64(1) << 63 // decorator span ids, disjoint from request ids
	for i := range inner {
		sp := &inner[i]
		sp.ID = next
		next++
		// Requests are sorted by start; those starting after sp cannot
		// contain it. Two workers mean at most a handful overlap.
		hi := sort.Search(len(requests), func(k int) bool { return requests[k].Start > sp.Start })
		var parent *span
		for k := hi - 1; k >= 0 && k >= hi-8; k-- {
			if requests[k].End >= sp.End {
				if parent != nil {
					parent = nil // ambiguous: two sampled requests cover it
					break
				}
				parent = &requests[k]
			}
		}
		if parent != nil {
			sp.Parent, sp.Req = parent.ID, parent.ID
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := struct {
		Note  string `json:"note"`
		Spans []span `json:"spans"`
	}{
		Note:  fmt.Sprintf("1-in-%d request sample; parent of a decorator span is the one sampled request containing it in time, 0 if none or ambiguous", sampleEvery),
		Spans: append(requests, inner...),
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
