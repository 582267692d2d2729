package server

import (
	"testing"
	"time"

	"bpwrapper/internal/buffer"
	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/reqtrace"
	"bpwrapper/internal/storage"
)

// TestTraceIDPropagatesClientToDevice is the loopback proof of DESIGN.md
// §14's wire propagation: a trace ID set on the client flows through the
// protocol's trace-context extension, is adopted by the server's pool
// session, and ends up on the spans of the pool access it caused — one
// trace identity from the client's call site down to the device read.
func TestTraceIDPropagatesClientToDevice(t *testing.T) {
	pool := buffer.New(buffer.Config{
		Frames: 8, PolicyFactory: replacer.Factories()["lru"],
		Device: storage.NewMemDevice(),
		// Head sampling effectively off: every retained trace below was
		// adopted from the wire, not sampled locally.
		Trace: reqtrace.Config{Enable: true, SampleEvery: 1 << 30, SLO: time.Hour},
	})
	srv, err := New(Config{Pool: pool, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const tid = uint64(0xBEEFCAFE)
	cl.SetTraceID(tid)
	if _, err := cl.Get(page.NewPageID(1, 7)); err != nil { // miss: hits the device
		t.Fatal(err)
	}
	cl.SetTraceID(0)
	if _, err := cl.Get(page.NewPageID(1, 7)); err != nil { // untraced hit
		t.Fatal(err)
	}

	var phases []reqtrace.Phase
	foreign := 0
	var root *reqtrace.Span
	for _, sp := range pool.Tracer().Spans() {
		if sp.Trace != tid {
			foreign++
			continue
		}
		sp := sp
		phases = append(phases, sp.Phase)
		if sp.Phase == reqtrace.PhaseRequest {
			root = &sp
		}
	}
	if foreign != 0 {
		t.Fatalf("%d spans on unexpected trace IDs (head sampling should be off)", foreign)
	}
	has := make(map[reqtrace.Phase]bool)
	for _, p := range phases {
		has[p] = true
	}
	for _, want := range []reqtrace.Phase{
		reqtrace.PhaseRequest, reqtrace.PhaseDeviceRead, reqtrace.PhaseServer,
	} {
		if !has[want] {
			t.Fatalf("trace %#x lacks %s span; got %v", tid, want, phases)
		}
	}
	if root == nil || root.Flags&reqtrace.FlagRemote == 0 {
		t.Fatalf("adopted trace's root span not flagged remote: %+v", root)
	}

	// The op-latency histogram must carry an exemplar pointing back at the
	// traced request.
	snap := srv.c.lat[OpGet].Snapshot()
	found := false
	for _, e := range snap.Exemplars {
		if e.TraceID == tid {
			found = true
		}
	}
	if !found {
		t.Fatalf("no exemplar with trace %#x on the GET latency histogram: %+v", tid, snap.Exemplars)
	}
}

// TestTraceFlagBackwardCompatible verifies untraced clients are byte-for-
// byte unaffected and a flagged frame with a truncated prefix is refused
// like any unknown opcode.
func TestTraceFlagBackwardCompatible(t *testing.T) {
	pool := buffer.New(buffer.Config{
		Frames: 8, PolicyFactory: replacer.Factories()["lru"],
		Device: storage.NewMemDevice(),
	})
	srv, err := New(Config{Pool: pool, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Get(page.NewPageID(1, 1)); err != nil {
		t.Fatal(err)
	}

	// Hand-roll a flagged GET whose payload is too short for a trace ID.
	bad, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	frame := appendFrame(nil, OpGet|TraceFlag, 1, []byte{1, 2, 3})
	if _, err := bad.nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	status, _, _, err := bad.fr.next()
	if err != nil {
		t.Fatal(err)
	}
	if status != StatusBadRequest {
		t.Fatalf("truncated trace prefix answered %s, want bad_request", statusName(status))
	}
}
