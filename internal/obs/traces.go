// Trace exposition: the registry carries the pool's request tracer
// (reqtrace.Tracer) alongside its collectors and flight recorder, and the
// HTTP server renders them at /debug/traces — a slowest-N text view for
// terminals and a Chrome trace_event JSON view (chrome://tracing,
// Perfetto) for timelines. The registry also exports the tracer's keep/
// drop counters as bpw_trace_* series so scrape dashboards can watch
// sampling pressure without fetching spans.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"bpwrapper/internal/reqtrace"
)

// RegisterTracer sets the request tracer for the /debug/traces endpoint
// and registers its counters as bpw_trace_* metrics. A nil tracer
// (tracing disabled) is ignored, so pools can call this unconditionally;
// a second tracer panics, because a registry fronts one pool.
func (g *Registry) RegisterTracer(tr *reqtrace.Tracer) {
	if tr == nil {
		return
	}
	g.mu.Lock()
	if g.tracer != nil {
		g.mu.Unlock()
		panic("obs: a registry holds one request tracer")
	}
	g.tracer = tr
	g.mu.Unlock()
	g.Register(func(emit func(Metric)) {
		st := tr.Snapshot()
		for _, m := range []struct {
			name, help string
			v          int64
		}{
			{"bpw_trace_started_total", "requests seen by the tracer (folded at sample points)", st.Started},
			{"bpw_trace_sampled_total", "head-sampled requests", st.Sampled},
			{"bpw_trace_kept_total", "traces flushed to the head-sample rings", st.KeptMain},
			{"bpw_trace_kept_tail_total", "traces kept for crossing the SLO or erroring", st.KeptTail},
			{"bpw_trace_discarded_total", "armed traces under the SLO, discarded", st.Discarded},
			{"bpw_trace_span_drops_total", "spans lost to per-request scratch overflow", st.SpanDrops},
			{"bpw_trace_emitted_total", "cross-thread spans emitted directly", st.Emitted},
			{"bpw_trace_ring_drops_total", "ring slots overwritten or torn before a reader saw them", st.RingDrops},
		} {
			emit(Metric{Name: m.name, Help: m.help, Type: Counter, Value: float64(m.v)})
		}
	})
}

// traceGroup is one reconstructed trace: its spans sorted by start time
// and the figures the text view ranks by.
type traceGroup struct {
	id    uint64
	spans []reqtrace.Span
	dur   int64 // root-span duration, or the span envelope without a root
	flags uint8 // union of span flags
}

// gatherTraces snapshots the registered tracer's rings and groups the
// spans by trace ID, slowest trace first.
func (g *Registry) gatherTraces() []traceGroup {
	g.mu.Lock()
	tr := g.tracer
	g.mu.Unlock()
	byID := make(map[uint64]*traceGroup)
	for _, sp := range tr.Spans() {
		tg := byID[sp.Trace]
		if tg == nil {
			tg = &traceGroup{id: sp.Trace}
			byID[sp.Trace] = tg
		}
		tg.spans = append(tg.spans, sp)
		tg.flags |= sp.Flags
	}
	out := make([]traceGroup, 0, len(byID))
	for _, tg := range byID {
		sort.Slice(tg.spans, func(i, j int) bool {
			a, b := &tg.spans[i], &tg.spans[j]
			if a.Start != b.Start {
				return a.Start < b.Start
			}
			return a.Phase < b.Phase
		})
		lo, hi := int64(0), int64(0)
		for i := range tg.spans {
			sp := &tg.spans[i]
			if sp.Phase == reqtrace.PhaseRequest {
				tg.dur = sp.Dur
			}
			if i == 0 || sp.Start < lo {
				lo = sp.Start
			}
			if end := sp.Start + sp.Dur; i == 0 || end > hi {
				hi = end
			}
		}
		if tg.dur == 0 {
			// Spans without a retained root (e.g. a late cross-thread
			// write-back whose trace scrolled out): rank by the envelope.
			tg.dur = hi - lo
		}
		out = append(out, *tg)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].dur != out[j].dur {
			return out[i].dur > out[j].dur
		}
		return out[i].id < out[j].id
	})
	return out
}

// flagString renders a span-flag union compactly (e.g. "sampled|tail").
func flagString(f uint8) string {
	var parts []string
	for _, fl := range []struct {
		bit  uint8
		name string
	}{
		{reqtrace.FlagSampled, "sampled"},
		{reqtrace.FlagTail, "tail"},
		{reqtrace.FlagError, "error"},
		{reqtrace.FlagRemote, "remote"},
		{reqtrace.FlagCross, "cross"},
		{reqtrace.FlagPartial, "partial"},
	} {
		if f&fl.bit != 0 {
			parts = append(parts, fl.name)
		}
	}
	if len(parts) == 0 {
		return "-"
	}
	s := parts[0]
	for _, p := range parts[1:] {
		s += "|" + p
	}
	return s
}

// WriteTracesText renders the slowest n traces as indented text, one
// block per trace, spans in start order with phase, offset from
// the trace's first span, duration, and args. n <= 0 means all.
func (g *Registry) WriteTracesText(w io.Writer, n int) {
	traces := g.gatherTraces()
	if len(traces) == 0 {
		fmt.Fprintln(w, "no traces retained (tracing disabled, or nothing sampled yet)")
		return
	}
	if n > 0 && len(traces) > n {
		traces = traces[:n]
	}
	for _, tg := range traces {
		fmt.Fprintf(w, "trace %016x  %s  %d spans  %s\n",
			tg.id, durString(tg.dur), len(tg.spans), flagString(tg.flags))
		base := tg.spans[0].Start
		for _, sp := range tg.spans {
			fmt.Fprintf(w, "  +%-12s %-16s dur=%-12s flags=%s arg1=%d arg2=%d\n",
				durString(sp.Start-base), sp.PhaseName(),
				durString(sp.Dur), flagString(sp.Flags), sp.Arg1, sp.Arg2)
		}
	}
}

// durString renders nanoseconds for humans without importing time's
// Duration formatting quirks into golden tests (stable µs/ms units).
func durString(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.3fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.3fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.3fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// chromeEvent is one Chrome trace_event entry ("X" = complete event).
// Timestamps and durations are microseconds per the trace-event spec; the
// trace ID becomes the tid so chrome://tracing and Perfetto lay each
// trace out on its own track.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	Args map[string]any `json:"args"`
}

// WriteTracesChrome renders every retained span in the Chrome trace_event
// JSON format, loadable in chrome://tracing or ui.perfetto.dev.
func (g *Registry) WriteTracesChrome(w io.Writer) error {
	var evs []chromeEvent
	for _, tg := range g.gatherTraces() {
		for _, sp := range tg.spans {
			evs = append(evs, chromeEvent{
				Name: sp.PhaseName(), Cat: "bpw", Ph: "X",
				Ts: float64(sp.Start) / 1e3, Dur: float64(sp.Dur) / 1e3,
				Pid: 1, Tid: sp.Trace,
				Args: map[string]any{
					"trace": fmt.Sprintf("%016x", sp.Trace),
					"flags": flagString(sp.Flags),
					"arg1":  sp.Arg1,
					"arg2":  sp.Arg2,
				},
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"})
}

// WriteTracesJSON renders the raw grouped spans as JSON — the machine
// format bptrace's fetch mode consumes.
func (g *Registry) WriteTracesJSON(w io.Writer, n int) error {
	traces := g.gatherTraces()
	if n > 0 && len(traces) > n {
		traces = traces[:n]
	}
	type jsonTrace struct {
		Trace  string          `json:"trace"`
		DurNs  int64           `json:"dur_ns"`
		Flags  string          `json:"flags"`
		Phases []string        `json:"phases"`
		Spans  []reqtrace.Span `json:"spans"`
	}
	out := make([]jsonTrace, 0, len(traces))
	for _, tg := range traces {
		jt := jsonTrace{
			Trace: fmt.Sprintf("%016x", tg.id),
			DurNs: tg.dur, Flags: flagString(tg.flags), Spans: tg.spans,
		}
		for _, sp := range tg.spans {
			jt.Phases = append(jt.Phases, sp.PhaseName())
		}
		out = append(out, jt)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{"traces": out})
}
