package reqtrace

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// tick installs a deterministic clock advancing 100ns per read.
func tick() func() int64 {
	var c int64
	return func() int64 { c += 100; return c }
}

func TestNilTracerInert(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() || tr.NextID() != 0 || tr.Now() != 0 || tr.Spans() != nil {
		t.Fatal("nil tracer not inert")
	}
	tr.Emit(Span{Trace: 1})
	if (tr.Snapshot() != Stats{}) {
		t.Fatal("nil tracer has stats")
	}
	if New(Config{}) != nil {
		t.Fatal("disabled config should yield nil tracer")
	}
	var a Active
	a.Init(nil)
	a.Begin()
	a.Span(PhasePin, 1, 2, 0, 0)
	a.Slow(PhaseDeviceRead, 1, 2, 0, 0)
	a.End(0, nil)
	if a.Sampled() || a.ID() != 0 {
		t.Fatal("disabled Active not inert")
	}
}

func TestHeadSampling(t *testing.T) {
	tr := New(Config{Enable: true, SampleEvery: 4, Clock: tick()})
	var a Active
	a.Init(tr)
	sampled := 0
	for i := 0; i < 16; i++ {
		a.Begin()
		if a.Sampled() {
			sampled++
			a.Span(PhaseBucketProbe, a.Now(), 100, 0, 0)
		}
		a.End(uint64(i), nil)
	}
	if sampled != 4 {
		t.Fatalf("sampled %d of 16 with SampleEvery=4", sampled)
	}
	spans := tr.Spans()
	roots, probes := 0, 0
	for _, sp := range spans {
		switch sp.Phase {
		case PhaseRequest:
			roots++
			if sp.Flags&FlagSampled == 0 {
				t.Fatalf("root missing sampled flag: %+v", sp)
			}
		case PhaseBucketProbe:
			probes++
		}
	}
	if roots != 4 || probes != 4 {
		t.Fatalf("got %d roots, %d probes, want 4/4", roots, probes)
	}
	st := tr.Snapshot()
	if st.Started != 16 || st.Sampled != 4 || st.KeptMain != 4 || st.KeptTail != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestTailKeepArmsOnSlowPhase(t *testing.T) {
	// SampleEvery huge: nothing head-sampled. A request that stamps a
	// slow phase and crosses the SLO must still be retained (tail ring);
	// one under the SLO must be discarded.
	var c int64
	clock := func() int64 { c += 100; return c }
	tr := New(Config{Enable: true, SampleEvery: 1 << 30, SLO: time.Microsecond, Clock: clock})
	var a Active
	a.Begin() // uninitialised Active is inert
	a.Init(tr)

	// Slow request: device read of 5µs >> 1µs SLO.
	a.Begin()
	if a.Sampled() {
		t.Fatal("unexpected head sample")
	}
	t0 := tr.Now()
	c += 5000 // the device read burns 5µs
	a.Slow(PhaseDeviceRead, t0, tr.Now()-t0, 77, 0)
	a.End(77, nil)

	// Fast armed request: 100ns device read, under the SLO → discarded.
	a.Begin()
	t1 := tr.Now()
	a.Slow(PhaseDeviceRead, t1, 10, 78, 0)
	a.End(78, nil)

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2 (root+device of the slow trace): %+v", len(spans), spans)
	}
	var root, dev *Span
	for i := range spans {
		switch spans[i].Phase {
		case PhaseRequest:
			root = &spans[i]
		case PhaseDeviceRead:
			dev = &spans[i]
		}
	}
	if root == nil || dev == nil || root.Trace != dev.Trace {
		t.Fatalf("tail trace incoherent: %+v", spans)
	}
	if root.Flags&FlagTail == 0 || root.Flags&FlagPartial == 0 {
		t.Fatalf("root flags %b missing tail/partial", root.Flags)
	}
	if dev.Arg1 != 77 {
		t.Fatalf("device span %+v", dev)
	}
	st := tr.Snapshot()
	if st.KeptTail != 1 || st.Discarded != 1 || st.KeptMain != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestErrorAlwaysKept(t *testing.T) {
	tr := New(Config{Enable: true, SampleEvery: 1 << 30, SLO: time.Hour, Clock: tick()})
	var a Active
	a.Init(tr)
	a.Begin()
	a.Slow(PhaseDeviceRead, tr.Now(), 100, 5, 0)
	a.End(5, errors.New("boom"))
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("error trace not kept: %+v", spans)
	}
	for _, sp := range spans {
		if sp.Phase == PhaseRequest && (sp.Flags&FlagError == 0 || sp.Arg2 != 1) {
			t.Fatalf("root not error-marked: %+v", sp)
		}
	}
}

func TestAdoptedIDSpansRemote(t *testing.T) {
	tr := New(Config{Enable: true, SampleEvery: 1 << 30, Clock: tick()})
	var a Active
	a.Init(tr)
	a.SetNext(0xdeadbeef)
	a.Begin()
	if !a.Sampled() || a.ID() != 0xdeadbeef {
		t.Fatalf("adoption failed: sampled=%v id=%x", a.Sampled(), a.ID())
	}
	a.Span(PhasePin, a.Now(), 50, 0, 0)
	a.End(9, nil)
	// Next request reverts to head sampling.
	a.Begin()
	if a.Sampled() {
		t.Fatal("adoption leaked into the next request")
	}
	a.End(10, nil)
	for _, sp := range tr.Spans() {
		if sp.Trace != 0xdeadbeef || sp.Flags&FlagRemote == 0 {
			t.Fatalf("span not tagged remote: %+v", sp)
		}
	}
}

func TestEmitCrossThread(t *testing.T) {
	tr := New(Config{Enable: true, Clock: tick()})
	tr.Emit(Span{Trace: 42, Phase: PhaseEnqueue, Flags: FlagCross, Start: 1, Dur: 300, Arg1: 7, Arg2: 3})
	tr.Emit(Span{Trace: 0}) // ignored
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Arg1 != 7 || spans[0].Flags&FlagCross == 0 {
		t.Fatalf("emit: %+v", spans)
	}
	if tr.Snapshot().Emitted != 1 {
		t.Fatal("emitted counter")
	}
}

func TestScratchOverflowKeepsRoot(t *testing.T) {
	tr := New(Config{Enable: true, SampleEvery: 1, Clock: tick()})
	var a Active
	a.Init(tr)
	a.Begin()
	for i := 0; i < maxScratch+4; i++ {
		a.Span(PhasePin, a.Now(), 10, uint64(i), 0)
	}
	a.End(1, nil)
	spans := tr.Spans()
	if len(spans) != maxScratch {
		t.Fatalf("got %d spans, want %d", len(spans), maxScratch)
	}
	roots := 0
	for _, sp := range spans {
		if sp.Phase == PhaseRequest {
			roots++
		}
	}
	if roots != 1 {
		t.Fatalf("root spans = %d", roots)
	}
	if tr.Snapshot().SpanDrops == 0 {
		t.Fatal("overflow not accounted")
	}
}

func TestRingWrapAndConcurrency(t *testing.T) {
	// Every field of a span, the two packed into meta included, derives
	// from one value, so the survivors of a wrap prove the encoding too.
	span := func(v uint64) Span {
		return Span{
			Trace: v, Phase: Phase(v%uint64(phaseMax-1) + 1), Flags: uint8(v >> 3),
			Start: int64(v + 1), Dur: int64(v + 2), Arg1: v + 3, Arg2: ^v,
		}
	}
	r := newRing(8)
	for v := uint64(1); v <= 100; v++ {
		r.put(span(v << 7))
	}
	kept := r.snapshot(nil)
	if len(kept) != 8 {
		t.Fatalf("ring kept %d, want 8", len(kept))
	}
	for _, sp := range kept {
		if sp != span(sp.Trace) || sp.Trace>>7 <= 92 {
			t.Fatalf("span came back as %+v", sp)
		}
	}
	if r.Dropped() != 92 {
		t.Fatalf("dropped %d, want 92", r.Dropped())
	}

	// Concurrent writers vs a snapshotting reader, for -race through the
	// typed layer. That no snapshot returns a span mixing two writes is
	// metrics.TestRingTornReadRefused's and TestRingConcurrentNeverMixes's
	// to show: these writers store the same phase, so a mix could not show.
	r2 := newRing(64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				r2.put(Span{Trace: uint64(g + 1), Phase: PhaseDeviceRead, Arg1: uint64(i)})
			}
		}(g)
	}
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, sp := range r2.snapshot(nil) {
				if sp.Phase != PhaseDeviceRead || sp.Trace == 0 || sp.Trace > 4 {
					t.Errorf("span no writer stored: %+v", sp)
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	readerWG.Wait()
	if r2.Seq() != 80000 {
		t.Fatalf("%d spans put, want 80000", r2.Seq())
	}
}

func TestPhaseNames(t *testing.T) {
	seen := map[string]bool{}
	for p := PhaseRequest; p < phaseMax; p++ {
		s := p.String()
		if s == "" || seen[s] {
			t.Fatalf("phase %d name %q duplicate or empty", p, s)
		}
		seen[s] = true
	}
	if Phase(200).String() != "phase(200)" {
		t.Fatalf("unknown phase formatting: %q", Phase(200).String())
	}
}
