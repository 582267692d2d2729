package bench

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestTracingExperimentShape checks the E20 invariants the committed
// baseline claims: every access yields exactly one retained trace, hits
// never carry a device-read phase, misses always do, and the batched
// arms keep lock-wait and policy-op phases off the resident hit path
// that the naive arm pays them on.
func TestTracingExperimentShape(t *testing.T) {
	rep, err := TracingExperiment(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Arms) != 3 {
		t.Fatalf("got %d arms, want 3", len(rep.Arms))
	}
	phases := make(map[string]map[string]map[string]TracingPhaseRow) // system -> class -> phase
	for _, p := range rep.Phases {
		if phases[p.System] == nil {
			phases[p.System] = map[string]map[string]TracingPhaseRow{}
		}
		if phases[p.System][p.Class] == nil {
			phases[p.System][p.Class] = map[string]TracingPhaseRow{}
		}
		phases[p.System][p.Class][p.Phase] = p
	}
	for _, a := range rep.Arms {
		if a.Accesses != int64(rep.Accesses) || a.Hits+a.Misses != a.Accesses {
			t.Fatalf("%s: access accounting off: %+v", a.System, a)
		}
		if a.Hits == 0 || a.Misses == 0 {
			t.Fatalf("%s: workload must mix hits and misses: %+v", a.System, a)
		}
		// One trace per access, nothing discarded by the rings.
		if a.Kept != a.Accesses || a.RingDrops != 0 || a.SpanDrops != 0 {
			t.Fatalf("%s: tracing lost data: %+v", a.System, a)
		}
		if a.MissP99 < a.HitP99 {
			t.Fatalf("%s: miss tail (%d) below hit tail (%d)", a.System, a.MissP99, a.HitP99)
		}
		ph := phases[a.System]
		if _, ok := ph["hit"]["device-read"]; ok {
			t.Fatalf("%s: hit traces carry device reads", a.System)
		}
		dr, ok := ph["miss"]["device-read"]
		if !ok || dr.Count != a.Misses {
			t.Fatalf("%s: want %d miss device-read spans, got %+v", a.System, a.Misses, dr)
		}
		// Every class's request roots are all retained.
		if req := ph["hit"]["request"]; req.Count != a.Hits {
			t.Fatalf("%s: hit request roots %d != hits %d", a.System, req.Count, a.Hits)
		}
		if req := ph["miss"]["request"]; req.Count != a.Misses {
			t.Fatalf("%s: miss request roots %d != misses %d", a.System, req.Count, a.Misses)
		}
	}
	// The paper's point, visible in the decomposition: the naive arm takes
	// the list lock (and runs the policy op) on every resident hit; the
	// batching arms do neither.
	if _, ok := phases["pg2Q"]["hit"]["lock-wait"]; !ok {
		t.Fatal("pg2Q hits show no lock-wait phase; expected one per hit")
	}
	for _, sys := range []string{"pgBat", "pgBatFC"} {
		if _, ok := phases[sys]["hit"]["lock-wait"]; ok {
			t.Fatalf("%s hits still wait on the list lock", sys)
		}
		if _, ok := phases[sys]["hit"]["policy-op"]; ok {
			t.Fatalf("%s hits still run inline policy ops", sys)
		}
	}
}

// TestTracingExperimentDeterministic locks the byte-for-byte JSON
// stability that the committed results/BENCH_tracing.json relies on.
func TestTracingExperimentDeterministic(t *testing.T) {
	render := func() string {
		rep, err := TracingExperiment(Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := WriteJSON(&sb, rep); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("tracing report not deterministic:\n--- first\n%s\n--- second\n%s", a, b)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(a), &doc); err != nil {
		t.Fatalf("report not valid JSON: %v", err)
	}
	if doc["experiment"] != "tracing" {
		t.Fatalf("experiment = %v", doc["experiment"])
	}
}

// TestTracingTable sanity-checks the table rendering: one line per arm and
// per phase under the two headings.
func TestTracingTable(t *testing.T) {
	rep, err := TracingExperiment(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	PrintTracing(&sb, rep)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if want := 7 + len(rep.Arms) + len(rep.Phases); len(lines) != want {
		t.Fatalf("table has %d lines, want %d:\n%s", len(lines), want, sb.String())
	}
	if !strings.HasPrefix(lines[4], "  pg2Q ") {
		t.Fatalf("first arm row = %q", lines[4])
	}
}
