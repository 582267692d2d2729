package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"bpwrapper/internal/workload"
)

// tinyOptions keeps test runs fast: one small skewed workload and a short
// simulated interval (the default ModeSim is deterministic).
func tinyOptions() Options {
	return Options{
		Duration: 15 * time.Millisecond,
		Seed:     7,
		Workloads: []workload.Workload{
			workload.NewTPCW(workload.TPCWConfig{Items: 800, Customers: 800, Workers: 64}),
		},
	}
}

func TestSystemsTableI(t *testing.T) {
	sys := Systems()
	if len(sys) != 5 {
		t.Fatalf("got %d systems, want the paper's 5", len(sys))
	}
	want := map[string]struct{ batch, pre bool }{
		"pgClock":  {false, false},
		"pg2Q":     {false, false},
		"pgBat":    {true, false},
		"pgPre":    {false, true},
		"pgBatPre": {true, true},
	}
	for _, s := range sys {
		w, ok := want[s.Name]
		if !ok {
			t.Fatalf("unexpected system %q", s.Name)
		}
		if s.Batching != w.batch || s.Prefetching != w.pre {
			t.Fatalf("%s: batching=%v prefetching=%v", s.Name, s.Batching, s.Prefetching)
		}
		if s.Name == "pgClock" && s.Policy != "clock" {
			t.Fatalf("pgClock uses %q", s.Policy)
		}
		if s.Name != "pgClock" && s.Policy != "2q" {
			t.Fatalf("%s uses %q", s.Name, s.Policy)
		}
	}
}

func TestFig2BatchingReducesLockTime(t *testing.T) {
	rows, err := Fig2BatchSize(16, []int{1, 16, 64}, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows=%d", len(rows))
	}
	// The paper's Figure 2 shape: per-access lock time falls steeply with
	// batch size and keeps falling (gently) to 64.
	if rows[1].LockTimePerAccess*2 >= rows[0].LockTimePerAccess {
		t.Errorf("batch=16 lock time %v not well below batch=1's %v",
			rows[1].LockTimePerAccess, rows[0].LockTimePerAccess)
	}
	// Past the knee both sizes sit on the amortized floor; allow noise but
	// no regression back toward the saturated regime.
	if rows[2].LockTimePerAccess > 2*rows[1].LockTimePerAccess {
		t.Errorf("lock time rose from batch=16 (%v) to batch=64 (%v)",
			rows[1].LockTimePerAccess, rows[2].LockTimePerAccess)
	}
}

func TestScalabilityPaperShape(t *testing.T) {
	rows, err := Scalability(nil, []int{1, 16}, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	get := func(system string, procs int) ScalabilityRow {
		for _, r := range rows {
			if r.System == system && r.Procs == procs {
				return r
			}
		}
		t.Fatalf("missing row %s/%d", system, procs)
		return ScalabilityRow{}
	}
	clock16 := get("pgClock", 16)
	plain16 := get("pg2Q", 16)
	bat16 := get("pgBat", 16)
	batpre16 := get("pgBatPre", 16)

	// pg2Q collapses; pgBat and pgBatPre track pgClock.
	if plain16.ThroughputTPS > 0.75*clock16.ThroughputTPS {
		t.Errorf("pg2Q@16 %.0f tps not clearly below pgClock's %.0f", plain16.ThroughputTPS, clock16.ThroughputTPS)
	}
	for _, sys := range []ScalabilityRow{bat16, batpre16} {
		if sys.ThroughputTPS < 0.85*clock16.ThroughputTPS {
			t.Errorf("%s@16 %.0f tps does not track pgClock's %.0f", sys.System, sys.ThroughputTPS, clock16.ThroughputTPS)
		}
	}
	// Contention ordering: pg2Q ≫ pgBat ≥≈ pgBatPre; pgClock ~0.
	if plain16.ContentionPerM < 10*bat16.ContentionPerM {
		t.Errorf("pg2Q contention %.1f/M not an order above pgBat's %.1f/M",
			plain16.ContentionPerM, bat16.ContentionPerM)
	}
	if clock16.ContentionPerM > 1 {
		t.Errorf("pgClock contention %.1f/M; expected ~0", clock16.ContentionPerM)
	}
	// Scaling: pgClock and pgBat throughput grow strongly with procs.
	clock1 := get("pgClock", 1)
	if clock16.ThroughputTPS < 8*clock1.ThroughputTPS {
		t.Errorf("pgClock speedup only %.1fx", clock16.ThroughputTPS/clock1.ThroughputTPS)
	}
	// Response time: pg2Q's average response at 16 procs is much longer
	// than pgBat's.
	if plain16.AvgResponse < bat16.AvgResponse {
		t.Errorf("pg2Q response %v below pgBat's %v at 16 procs", plain16.AvgResponse, bat16.AvgResponse)
	}
}

func TestTableIIQueueSizeShape(t *testing.T) {
	rows, err := TableIIQueueSize(16, []int{1, 8, 64}, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows=%d", len(rows))
	}
	// Contention drops steeply as the queue grows (Table II's shape).
	if rows[1].ContentionPerM*2 > rows[0].ContentionPerM {
		t.Errorf("queue=8 contention %.1f/M not well below queue=1's %.1f/M",
			rows[1].ContentionPerM, rows[0].ContentionPerM)
	}
	if rows[2].ContentionPerM > rows[1].ContentionPerM {
		t.Errorf("contention rose from queue=8 (%.1f) to queue=64 (%.1f)",
			rows[1].ContentionPerM, rows[2].ContentionPerM)
	}
	if rows[2].ThroughputTPS < rows[0].ThroughputTPS {
		t.Errorf("throughput fell with bigger queue: %.0f vs %.0f",
			rows[2].ThroughputTPS, rows[0].ThroughputTPS)
	}
}

func TestTableIIIThresholdShape(t *testing.T) {
	rows, err := TableIIIThreshold(16, []int{32, 64}, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows=%d", len(rows))
	}
	// Table III's key finding: threshold == queue size (64) removes the
	// TryLock path entirely and contends much more than threshold 32.
	if rows[1].ContentionPerM <= rows[0].ContentionPerM {
		t.Errorf("threshold=64 contention %.1f/M not above threshold=32's %.1f/M",
			rows[1].ContentionPerM, rows[0].ContentionPerM)
	}
}

func TestFig8OverallShape(t *testing.T) {
	o := tinyOptions()
	o.Duration = 100 * time.Millisecond
	o.Workloads = []workload.Workload{
		workload.NewZipf(workload.SyntheticConfig{Pages: 4000, TxnLen: 10}),
	}
	rows, err := Fig8Overall(8, []float64{0.05, 1}, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 2 fractions × 3 systems
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		if r.HitRatio < 0 || r.HitRatio > 1 {
			t.Fatalf("hit ratio %v", r.HitRatio)
		}
		if r.ThroughputTPS <= 0 {
			t.Fatalf("throughput %v", r.ThroughputTPS)
		}
	}
	var small2Q, smallClock, big2Q, bigBatPre OverallRow
	for _, r := range rows {
		big := r.Frames >= 4000
		switch {
		case r.System == "pg2Q" && !big:
			small2Q = r
		case r.System == "pgClock" && !big:
			smallClock = r
		case r.System == "pg2Q" && big:
			big2Q = r
		case r.System == "pgBatPre" && big:
			bigBatPre = r
		}
	}
	// Small buffer (I/O bound): 2Q's hit ratio advantage over clock wins.
	if small2Q.HitRatio <= smallClock.HitRatio {
		t.Errorf("small buffer: 2Q hit ratio %.3f not above clock's %.3f",
			small2Q.HitRatio, smallClock.HitRatio)
	}
	// Large buffer (CPU bound): hit ratio near 1 and pgBatPre's throughput
	// beats the lock-bound pg2Q.
	if bigBatPre.HitRatio < 0.9 {
		t.Errorf("full-size buffer hit ratio %.3f", bigBatPre.HitRatio)
	}
	if bigBatPre.ThroughputTPS <= big2Q.ThroughputTPS {
		t.Errorf("large buffer: pgBatPre %.0f tps not above pg2Q's %.0f",
			bigBatPre.ThroughputTPS, big2Q.ThroughputTPS)
	}
}

func TestAblationSharedQueueShape(t *testing.T) {
	rows, err := AblationSharedQueue(16, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows=%d", len(rows))
	}
	var private, shared SharedQueueRow
	for _, r := range rows {
		if r.Design == "private" {
			private = r
		} else {
			shared = r
		}
	}
	if shared.ThroughputTPS > private.ThroughputTPS {
		t.Errorf("shared queue %.0f tps beat private queues %.0f", shared.ThroughputTPS, private.ThroughputTPS)
	}
}

func TestAblationPoliciesShape(t *testing.T) {
	rows, err := AblationPolicies(16, []string{"2q", "lirs", "mq"}, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows=%d", len(rows))
	}
	// For every policy, the wrapped system out-scales the plain one — the
	// "any replacement algorithm" claim.
	byPolicy := map[string]map[string]PolicyRow{}
	for _, r := range rows {
		if byPolicy[r.Policy] == nil {
			byPolicy[r.Policy] = map[string]PolicyRow{}
		}
		byPolicy[r.Policy][r.System] = r
	}
	for pol, m := range byPolicy {
		if m["bpwrapper"].ThroughputTPS < 1.3*m["plain"].ThroughputTPS {
			t.Errorf("%s: wrapped %.0f tps not well above plain %.0f",
				pol, m["bpwrapper"].ThroughputTPS, m["plain"].ThroughputTPS)
		}
	}
}

func TestPrinters(t *testing.T) {
	var buf bytes.Buffer
	PrintFig2(&buf, []BatchSizeRow{{BatchSize: 1, LockTimePerAccess: time.Microsecond, ContentionPerM: 5}})
	PrintScalability(&buf, "Figure 6", []ScalabilityRow{{Workload: "tpcw", System: "pg2Q", Procs: 4, ThroughputTPS: 100, AvgResponse: time.Millisecond, ContentionPerM: 9}})
	PrintTableII(&buf, []QueueSizeRow{{Workload: "tpcw", QueueSize: 8, ThroughputTPS: 10, ContentionPerM: 1}})
	PrintTableIII(&buf, []ThresholdRow{{Workload: "tpcw", Threshold: 8, ThroughputTPS: 10, ContentionPerM: 1}})
	PrintFig8(&buf, []OverallRow{
		{Workload: "tpcw", System: "pgClock", Frames: 64, BufferMB: 0.5, HitRatio: 0.5, ThroughputTPS: 10},
		{Workload: "tpcw", System: "pgBatPre", Frames: 64, BufferMB: 0.5, HitRatio: 0.6, ThroughputTPS: 12},
	})
	PrintSharedQueue(&buf, []SharedQueueRow{{Workload: "tpcw", Design: "private", Procs: 4, ThroughputTPS: 10}})
	PrintPolicies(&buf, []PolicyRow{{Workload: "tpcw", Policy: "lirs", System: "bpwrapper", Procs: 4, ThroughputTPS: 10}})
	out := buf.String()
	for _, want := range []string{"Figure 2", "Figure 6", "Table II", "Table III", "Figure 8", "Ablation", "pgBatPre", "1.20"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed report missing %q", want)
		}
	}
}
