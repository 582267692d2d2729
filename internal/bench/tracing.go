package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"bpwrapper/internal/buffer"
	"bpwrapper/internal/page"
	"bpwrapper/internal/reqtrace"
	"bpwrapper/internal/storage"
)

// ---------------------------------------------------------------------------
// Experiment E20 — request-latency decomposition via the reqtrace layer
// (DESIGN.md §14): one goroutine replays a seeded access stream through
// pg2Q, pgBat and pgBatFC with tracing at SampleEvery=1 on a virtual tick
// clock, then decomposes p50/p99 request latency by phase for hits and
// misses separately.
//
// The virtual clock advances one tick per reading, so a span's duration
// is the exact number of clock reads between its start and end — a
// machine-independent proxy for "how many timed steps this phase took".
// Everything is deterministic from the seed: the committed
// results/BENCH_tracing.json must reproduce byte-for-byte on any machine,
// and the committed numbers ARE the acceptance claims:
//
//   - every arm keeps exactly one trace per access (kept == accesses,
//     zero ring drops: nothing the tracer promised to retain was lost);
//   - miss p99 decomposes into device-read ticks that hit traces never
//     show (hits have no device-read phase rows at all);
//   - the batching arms show the combiner-handoff/lock-wait anatomy the
//     unbatched arm lacks.

// Tracing-experiment tuning: a working set at twice the frame count so the
// steady state mixes hits with evicting misses, and one write in every
// writeEvery accesses so the dirty write-back path (quarantine park +
// device write) appears in the decomposition.
const (
	TracingFrames     = 256
	TracingPages      = TracingFrames * 2
	tracingAccesses   = 1 << 13
	tracingWriteEvery = 8
)

// tracingSystems are the three arms: the naive integration, the paper's
// batching, and the flat-combining extension.
var tracingSystems = []System{System2Q, SystemBat, SystemFC}

// TracingArmRow is one system's summary: access totals, the tracer's
// keep/drop ledger, and the root-span latency quantiles (in virtual
// ticks) split by hit and miss.
type TracingArmRow struct {
	System    string `json:"system"`
	Accesses  int64  `json:"accesses"`
	Hits      int64  `json:"hits"`
	Misses    int64  `json:"misses"`
	Kept      int64  `json:"kept"`       // traces retained (head rings + tail)
	SpanDrops int64  `json:"span_drops"` // spans lost to scratch overflow
	RingDrops int64  `json:"ring_drops"` // ring slots overwritten or torn
	Emitted   int64  `json:"emitted"`    // cross-thread spans

	HitP50  int64 `json:"hit_p50_ticks"`
	HitP99  int64 `json:"hit_p99_ticks"`
	MissP50 int64 `json:"miss_p50_ticks"`
	MissP99 int64 `json:"miss_p99_ticks"`
}

// TracingPhaseRow is one (system, hit/miss, phase) cell of the
// decomposition: how many spans of that phase the class's traces carried
// and the tick quantiles of their durations.
type TracingPhaseRow struct {
	System string `json:"system"`
	Class  string `json:"class"` // "hit" or "miss"
	Phase  string `json:"phase"`
	Count  int64  `json:"count"`
	P50    int64  `json:"p50_ticks"`
	P99    int64  `json:"p99_ticks"`
	Max    int64  `json:"max_ticks"`
}

// TracingReport is the full E20 result.
type TracingReport struct {
	Experiment string            `json:"experiment"`
	Seed       int64             `json:"seed"`
	Frames     int               `json:"frames"`
	Pages      int               `json:"pages"`
	Accesses   int               `json:"accesses"`
	Arms       []TracingArmRow   `json:"arms"`
	Phases     []TracingPhaseRow `json:"phases"`
}

// TracingExperiment runs E20: each arm single-threaded over the same
// seeded stream, fully traced on a virtual tick clock.
func TracingExperiment(o Options) (*TracingReport, error) {
	o = o.withDefaults()
	rep := &TracingReport{
		Experiment: "tracing",
		Seed:       o.Seed,
		Frames:     TracingFrames,
		Pages:      TracingPages,
		Accesses:   tracingAccesses,
	}
	for _, sys := range tracingSystems {
		arm, phases, err := tracingPoint(sys, o.Seed)
		if err != nil {
			return nil, fmt.Errorf("tracing %s: %w", sys.Name, err)
		}
		rep.Arms = append(rep.Arms, arm)
		rep.Phases = append(rep.Phases, phases...)
	}
	return rep, nil
}

// tracingPoint drives one arm and decomposes its spans.
func tracingPoint(sys System, seed int64) (TracingArmRow, []TracingPhaseRow, error) {
	var tick int64
	pool, err := newPool(sys.Policy, buffer.Config{
		Frames:  TracingFrames,
		Wrapper: sys.WrapperConfig(0, 0),
		Device:  storage.NewNullDevice(),
		Trace: reqtrace.Config{
			Enable:      true,
			SampleEvery: 1, // trace every request: the decomposition wants the census, not a sample
			SLO:         time.Hour,
			RingSize:    1 << 16, // retain every span; the committed RingDrops==0 proves it
			Clock:       func() int64 { tick++; return tick },
		},
	})
	if err != nil {
		return TracingArmRow{}, nil, err
	}
	s := pool.NewSession()
	r := uint64(seed)*0x9e3779b97f4a7c15 + 1
	var pg page.Page
	for i := 0; i < tracingAccesses; i++ {
		r = splitmix64(&r)
		id := page.PageID(r%uint64(TracingPages) + 1)
		if i%tracingWriteEvery == tracingWriteEvery-1 {
			ref, err := pool.GetWrite(s, id)
			if err != nil {
				return TracingArmRow{}, nil, err
			}
			pg.Stamp(id)
			copy(ref.Data(), pg.Data[:])
			ref.MarkDirty()
			ref.Release()
			continue
		}
		ref, err := pool.Get(s, id)
		if err != nil {
			return TracingArmRow{}, nil, err
		}
		ref.Release()
	}
	s.Flush()

	st := pool.Stats()
	ts := pool.Tracer().Snapshot()
	arm := TracingArmRow{
		System:    sys.Name,
		Accesses:  st.Hits + st.Misses,
		Hits:      st.Hits,
		Misses:    st.Misses,
		Kept:      ts.KeptMain + ts.KeptTail,
		SpanDrops: ts.SpanDrops,
		RingDrops: ts.RingDrops,
		Emitted:   ts.Emitted,
	}

	// Group the retained spans into traces and classify each trace: a
	// device-read span means the request missed.
	type traceAcc struct {
		spans []reqtrace.Span
		miss  bool
	}
	byID := make(map[uint64]*traceAcc)
	for _, sp := range pool.Tracer().Spans() {
		ta := byID[sp.Trace]
		if ta == nil {
			ta = &traceAcc{}
			byID[sp.Trace] = ta
		}
		ta.spans = append(ta.spans, sp)
		if sp.Phase == reqtrace.PhaseDeviceRead {
			ta.miss = true
		}
	}
	type cell struct {
		class string
		phase reqtrace.Phase
	}
	durs := make(map[cell][]int64)
	var hitRoots, missRoots []int64
	for _, ta := range byID {
		class := "hit"
		if ta.miss {
			class = "miss"
		}
		for _, sp := range ta.spans {
			durs[cell{class, sp.Phase}] = append(durs[cell{class, sp.Phase}], sp.Dur)
			if sp.Phase == reqtrace.PhaseRequest {
				if ta.miss {
					missRoots = append(missRoots, sp.Dur)
				} else {
					hitRoots = append(hitRoots, sp.Dur)
				}
			}
		}
	}
	arm.HitP50, arm.HitP99 = tickQuantiles(hitRoots)
	arm.MissP50, arm.MissP99 = tickQuantiles(missRoots)

	cells := make([]cell, 0, len(durs))
	for c := range durs {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].class != cells[j].class {
			return cells[i].class < cells[j].class
		}
		return cells[i].phase < cells[j].phase
	})
	rows := make([]TracingPhaseRow, 0, len(cells))
	for _, c := range cells {
		ds := durs[c]
		p50, p99 := tickQuantiles(ds)
		max := int64(0)
		for _, d := range ds {
			if d > max {
				max = d
			}
		}
		rows = append(rows, TracingPhaseRow{
			System: sys.Name, Class: c.class, Phase: c.phase.String(),
			Count: int64(len(ds)), P50: p50, P99: p99, Max: max,
		})
	}
	return arm, rows, nil
}

// tickQuantiles returns the exact p50 and p99 of the samples (ceil-rank
// convention); (0, 0) when empty.
func tickQuantiles(ds []int64) (p50, p99 int64) {
	if len(ds) == 0 {
		return 0, 0
	}
	sorted := append([]int64(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := func(q float64) int64 {
		r := int(q*float64(len(sorted)) + 0.9999999)
		if r < 1 {
			r = 1
		}
		if r > len(sorted) {
			r = len(sorted)
		}
		return sorted[r-1]
	}
	return rank(0.50), rank(0.99)
}

// PrintTracing renders the arm summaries and the phase decomposition.
func PrintTracing(w io.Writer, rep *TracingReport) {
	fmt.Fprintln(w, "Request-latency decomposition (E20) — reqtrace spans on a virtual tick clock")
	fmt.Fprintf(w, "\nPer-arm summary (%d accesses over %d pages in %d frames; durations in clock ticks)\n",
		rep.Accesses, rep.Pages, rep.Frames)
	fmt.Fprintf(w, "  %-9s %9s %8s %8s %8s %6s %6s %8s %8s %9s %9s\n",
		"system", "accesses", "hits", "misses", "kept", "sdrop", "rdrop", "hit-p50", "hit-p99", "miss-p50", "miss-p99")
	for _, a := range rep.Arms {
		fmt.Fprintf(w, "  %-9s %9d %8d %8d %8d %6d %6d %8d %8d %9d %9d\n",
			a.System, a.Accesses, a.Hits, a.Misses, a.Kept, a.SpanDrops, a.RingDrops,
			a.HitP50, a.HitP99, a.MissP50, a.MissP99)
	}
	fmt.Fprintln(w, "\nPhase decomposition — span counts and tick quantiles by hit/miss class")
	fmt.Fprintf(w, "  %-9s %-5s %-17s %8s %7s %7s %7s\n",
		"system", "class", "phase", "count", "p50", "p99", "max")
	for _, p := range rep.Phases {
		fmt.Fprintf(w, "  %-9s %-5s %-17s %8d %7d %7d %7d\n",
			p.System, p.Class, p.Phase, p.Count, p.P50, p.P99, p.Max)
	}
}
