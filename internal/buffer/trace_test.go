package buffer

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"bpwrapper/internal/core"
	"bpwrapper/internal/page"
	"bpwrapper/internal/reqtrace"
	"bpwrapper/internal/storage"
)

// traceClock returns a deterministic virtual clock advancing 100 ticks per
// read, so span durations are reproducible and never zero.
func traceClock() func() int64 {
	var c int64
	return func() int64 { c += 100; return c }
}

// spansByTrace groups the tracer's retained spans by trace ID.
func spansByTrace(tr *reqtrace.Tracer) map[uint64][]reqtrace.Span {
	m := make(map[uint64][]reqtrace.Span)
	for _, sp := range tr.Spans() {
		m[sp.Trace] = append(m[sp.Trace], sp)
	}
	return m
}

func phaseSet(spans []reqtrace.Span) map[reqtrace.Phase]bool {
	s := make(map[reqtrace.Phase]bool)
	for _, sp := range spans {
		s[sp.Phase] = true
	}
	return s
}

// TestPoolTraceLatencyDecomposition drives one miss and one hit through a
// fully sampled pool and asserts each request's trace decomposes into the
// expected phases: the miss shows the table probe, the policy lock
// acquisition, and the device read; the hit shows probe and pin only.
func TestPoolTraceLatencyDecomposition(t *testing.T) {
	p := New(Config{
		Frames: 4, PolicyFactory: factoryOf("lru"),
		Device: storage.NewMemDevice(),
		Trace: reqtrace.Config{
			Enable: true, SampleEvery: 1, SLO: time.Hour, Clock: traceClock(),
		},
	})
	if p.Tracer() == nil {
		t.Fatal("tracing enabled but Pool.Tracer is nil")
	}
	s := p.NewSession()

	ref, err := p.Get(s, pid(1)) // miss
	if err != nil {
		t.Fatal(err)
	}
	ref.Release()
	ref, err = p.Get(s, pid(1)) // hit
	if err != nil {
		t.Fatal(err)
	}
	ref.Release()

	byTrace := spansByTrace(p.Tracer())
	if len(byTrace) != 2 {
		t.Fatalf("retained %d traces, want 2: %+v", len(byTrace), byTrace)
	}
	var missPh, hitPh map[reqtrace.Phase]bool
	for _, spans := range byTrace {
		ph := phaseSet(spans)
		if ph[reqtrace.PhaseDeviceRead] {
			missPh = ph
		} else {
			hitPh = ph
		}
	}
	if missPh == nil {
		t.Fatal("no trace contains a device-read span")
	}
	for _, want := range []reqtrace.Phase{
		reqtrace.PhaseRequest, reqtrace.PhaseBucketProbe, reqtrace.PhaseLockWait,
	} {
		if !missPh[want] {
			t.Fatalf("miss trace lacks %s: %v", want, missPh)
		}
	}
	if hitPh == nil {
		t.Fatal("no hit trace retained")
	}
	for _, want := range []reqtrace.Phase{
		reqtrace.PhaseRequest, reqtrace.PhaseBucketProbe, reqtrace.PhasePin,
	} {
		if !hitPh[want] {
			t.Fatalf("hit trace lacks %s: %v", want, hitPh)
		}
	}
	if hitPh[reqtrace.PhaseDeviceRead] || hitPh[reqtrace.PhaseQuarantine] {
		t.Fatalf("hit trace contains miss-only phases: %v", hitPh)
	}
}

// flakyWriteDevice fails WritePage while tripped, delegating otherwise.
type flakyWriteDevice struct {
	storage.Device
	fail atomic.Bool
}

func (d *flakyWriteDevice) WritePage(p *page.Page) error {
	if d.fail.Load() {
		return errors.New("injected write failure")
	}
	return d.Device.WritePage(p)
}

// TestQuarantineCrossThreadWriteBack proves the deferred write-back
// attribution of DESIGN.md §14: a traced request evicts a dirty page whose
// inline write-back fails (the copy stays quarantined, tagged with the
// request's trace), and when a later sweep — standing in for the background
// writer — makes the copy durable, the park-to-durable interval is emitted
// as a cross-thread span on the evicting request's trace.
func TestQuarantineCrossThreadWriteBack(t *testing.T) {
	dev := &flakyWriteDevice{Device: storage.NewMemDevice()}
	p := New(Config{
		Frames: 2, PolicyFactory: factoryOf("lru"),
		Device: dev,
		Trace: reqtrace.Config{
			Enable: true, SampleEvery: 1, SLO: time.Hour, Clock: traceClock(),
		},
	})
	s := p.NewSession()

	ref, err := p.GetWrite(s, pid(1))
	if err != nil {
		t.Fatal(err)
	}
	ref.Data()[0] = 0x77
	ref.MarkDirty()
	ref.Release()

	// Fill the pool with writes failing: evicting dirty pid(1) parks it and
	// leaves it parked when the inline write-back is refused.
	dev.fail.Store(true)
	for i := uint64(2); i <= 3; i++ {
		r, err := p.Get(s, pid(i))
		if err != nil {
			t.Fatal(err)
		}
		r.Release()
	}
	if p.quarantineLen() != 1 {
		t.Fatalf("quarantine holds %d pages, want 1", p.quarantineLen())
	}

	// The evicting request's trace is the one carrying the quarantine-park
	// span for pid(1).
	var parker uint64
	for _, sp := range p.Tracer().Spans() {
		if sp.Phase == reqtrace.PhaseQuarantine && sp.Arg2 == uint64(pid(1)) {
			parker = sp.Trace
		}
	}
	if parker == 0 {
		t.Fatal("no quarantine-park span for the evicted dirty page")
	}

	// Heal the device and drain — another "thread" doing the page's work.
	dev.fail.Store(false)
	if _, err := p.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	if p.quarantineLen() != 0 {
		t.Fatal("quarantine not drained")
	}

	found := false
	for _, sp := range p.Tracer().Spans() {
		if sp.Phase != reqtrace.PhaseDeviceWrite || sp.Flags&reqtrace.FlagCross == 0 {
			continue
		}
		found = true
		if sp.Trace != parker {
			t.Fatalf("cross write-back span on trace %d, want parker %d", sp.Trace, parker)
		}
		if sp.Arg2 != uint64(pid(1)) {
			t.Fatalf("cross write-back span for page %d, want %d", sp.Arg2, uint64(pid(1)))
		}
		if sp.Dur <= 0 {
			t.Fatalf("park-to-durable interval not positive: %+v", sp)
		}
	}
	if !found {
		t.Fatal("no cross-thread write-back span after draining the quarantine")
	}
}

// TestUntracedPoolInert verifies the zero value of Config.Trace disables
// tracing end to end: no tracer, no spans, accesses unaffected.
func TestUntracedPoolInert(t *testing.T) {
	p := newTestPool(4, core.Config{})
	if p.Tracer() != nil {
		t.Fatal("tracer built without Trace.Enable")
	}
	s := p.NewSession()
	for i := uint64(1); i <= 8; i++ {
		ref, err := p.Get(s, pid(i%4+1))
		if err != nil {
			t.Fatal(err)
		}
		ref.Release()
	}
}
