package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"bpwrapper/internal/metrics"
	"bpwrapper/internal/reqtrace"
)

// seedTracer builds an enabled tracer holding two traces: trace 1 slow
// (50µs, with a device read) and trace 2 fast (1µs).
func seedTracer(t *testing.T) *reqtrace.Tracer {
	t.Helper()
	tr := reqtrace.New(reqtrace.Config{Enable: true})
	tr.Emit(reqtrace.Span{Trace: 1, Phase: reqtrace.PhaseRequest,
		Flags: reqtrace.FlagSampled, Start: 100, Dur: 50_000, Arg1: 7})
	tr.Emit(reqtrace.Span{Trace: 1, Phase: reqtrace.PhaseDeviceRead,
		Flags: reqtrace.FlagSampled, Start: 120, Dur: 40_000, Arg2: 7})
	tr.Emit(reqtrace.Span{Trace: 2, Phase: reqtrace.PhaseRequest,
		Flags: reqtrace.FlagSampled, Start: 100, Dur: 1_000, Arg1: 9})
	return tr
}

func TestWriteTracesText(t *testing.T) {
	reg := NewRegistry()
	reg.RegisterTracer(nil) // a disabled tracer is accepted and ignored
	reg.RegisterTracer(seedTracer(t))

	var sb strings.Builder
	reg.WriteTracesText(&sb, 0)
	out := sb.String()
	i1 := strings.Index(out, "trace 0000000000000001")
	i2 := strings.Index(out, "trace 0000000000000002")
	if i1 < 0 || i2 < 0 {
		t.Fatalf("traces missing from text view:\n%s", out)
	}
	if i1 > i2 {
		t.Fatalf("slowest trace not first:\n%s", out)
	}
	for _, want := range []string{"device-read", "50.000µs", "sampled", "2 spans"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text view missing %q:\n%s", want, out)
		}
	}

	// The slowest-N limit prunes the fast trace.
	sb.Reset()
	reg.WriteTracesText(&sb, 1)
	if out := sb.String(); strings.Contains(out, "0000000000000002") {
		t.Fatalf("n=1 leaked the fast trace:\n%s", out)
	}

	// An empty registry explains itself instead of printing nothing.
	sb.Reset()
	NewRegistry().WriteTracesText(&sb, 0)
	if !strings.Contains(sb.String(), "no traces") {
		t.Fatalf("empty view not self-explanatory: %q", sb.String())
	}
}

func TestWriteTracesChrome(t *testing.T) {
	reg := NewRegistry()
	reg.RegisterTracer(seedTracer(t))
	var sb strings.Builder
	if err := reg.WriteTracesChrome(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  uint64  `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("chrome output not JSON: %v\n%s", err, sb.String())
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("got %d trace events, want 3", len(doc.TraceEvents))
	}
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event phase %q, want complete events", ev.Ph)
		}
		if ev.Name == "device-read" {
			found = true
			// Nanosecond spans become microsecond trace_event fields.
			if ev.Dur != 40 || ev.Ts != 0.12 || ev.Tid != 1 {
				t.Fatalf("device-read event mistranslated: %+v", ev)
			}
		}
	}
	if !found {
		t.Fatal("device-read span missing from chrome output")
	}
}

func TestWriteTracesJSON(t *testing.T) {
	reg := NewRegistry()
	reg.RegisterTracer(seedTracer(t))
	var sb strings.Builder
	if err := reg.WriteTracesJSON(&sb, 1); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Traces []struct {
			Trace  string   `json:"trace"`
			DurNs  int64    `json:"dur_ns"`
			Phases []string `json:"phases"`
		} `json:"traces"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Traces) != 1 || doc.Traces[0].Trace != "0000000000000001" || doc.Traces[0].DurNs != 50_000 {
		t.Fatalf("json view = %+v", doc.Traces)
	}
	if len(doc.Traces[0].Phases) != 2 || doc.Traces[0].Phases[0] != "request" {
		t.Fatalf("phases = %v", doc.Traces[0].Phases)
	}
}

func TestRegisterTracerMetrics(t *testing.T) {
	reg := NewRegistry()
	reg.RegisterTracer(seedTracer(t))
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "\nbpw_trace_emitted_total 3\n") {
		t.Fatalf("tracer counters missing:\n%s", out)
	}
}

func TestPrometheusExemplars(t *testing.T) {
	reg := NewRegistry()
	h := metrics.NewHistogram(time.Microsecond, time.Second, 12)
	h.RecordTraced(5*time.Millisecond, 0xabc)
	h.Record(8 * time.Microsecond) // untraced: its bucket carries no exemplar
	reg.Register(func(emit func(Metric)) {
		hs := h.Snapshot()
		emit(Metric{Name: "bpw_server_op_seconds", Type: Histogram,
			Labels: [][2]string{{"op", "get"}}, Hist: &hs})
	})
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `# {trace_id="0000000000000abc"} 0.005`) {
		t.Fatalf("exemplar missing from bucket lines:\n%s", out)
	}
	// Exactly one bucket line carries the exemplar.
	if got := strings.Count(out, "trace_id="); got != 1 {
		t.Fatalf("%d exemplar annotations, want 1:\n%s", got, out)
	}
}

func TestJSONTreeQuantiles(t *testing.T) {
	tree := testRegistry().JSONTree()
	wait := tree["bpw_lock_wait_seconds"].([]any)[0].(map[string]any)
	p50 := wait["p50_seconds"].(float64)
	p99 := wait["p99_seconds"].(float64)
	p999 := wait["p999_seconds"].(float64)
	// testRegistry records 5µs and 30ms: the median bound sits near the
	// small observation, the tails at or above the large one.
	if p50 <= 0 || p50 > 1e-3 {
		t.Fatalf("p50_seconds = %v, want a microsecond-scale bound", p50)
	}
	if p99 < 0.03 || p999 < p99 {
		t.Fatalf("p99=%v p999=%v, want tail bounds covering the 30ms sample", p99, p999)
	}
}

func TestTraceAndEventEndpoints(t *testing.T) {
	reg := NewRegistry()
	rec := NewRecorder(8)
	for i := 0; i < 5; i++ {
		rec.Record(EvQuarantinePark, uint64(i), 0)
	}
	reg.RegisterRecorder("pool", rec)
	reg.RegisterTracer(seedTracer(t))
	srv, err := NewServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path, wantType string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, wantType) {
			t.Fatalf("GET %s: Content-Type %q, want %q", path, ct, wantType)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	// /debug/events honors ?n= and renders newest-first.
	ev := get("/debug/events?n=2", "text/plain")
	if !strings.Contains(ev, "newest 2 of 5") || strings.Contains(ev, "[0]") {
		t.Fatalf("/debug/events?n=2 wrong:\n%s", ev)
	}
	if i4, i3 := strings.Index(ev, "[4]"), strings.Index(ev, "[3]"); i4 < 0 || i4 > i3 {
		t.Fatalf("/debug/events not newest-first:\n%s", ev)
	}
	// A malformed n falls back to the default rather than erroring.
	if out := get("/debug/events?n=bogus", "text/plain"); !strings.Contains(out, "[0]") {
		t.Fatalf("malformed ?n= should dump everything:\n%s", out)
	}

	if out := get("/debug/traces", "text/plain"); !strings.Contains(out, "trace 0000000000000001") {
		t.Fatalf("/debug/traces text missing trace:\n%s", out)
	}
	if out := get("/debug/traces?format=chrome", "application/json"); !strings.Contains(out, `"traceEvents"`) {
		t.Fatalf("/debug/traces?format=chrome not trace_event JSON:\n%s", out)
	}
	if out := get("/debug/traces?format=json&n=1", "application/json"); !strings.Contains(out, `"dur_ns": 50000`) {
		t.Fatalf("/debug/traces?format=json wrong:\n%s", out)
	}
	if out := get("/metrics", "text/plain"); !strings.Contains(out, "bpw_trace_emitted_total") {
		t.Fatalf("/metrics missing tracer counters:\n%s", out)
	}
}
