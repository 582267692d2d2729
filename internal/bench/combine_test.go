package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"bpwrapper/internal/workload"
)

// combineOptions stresses the commit path harder than tinyOptions: the
// table-scan workload processes pages fast enough that the protocols
// separate clearly even in a short run.
func combineOptions() Options {
	return Options{
		Duration: 20 * time.Millisecond,
		Seed:     1,
		Workloads: []workload.Workload{
			workload.NewTableScan(workload.TableScanConfig{}),
		},
	}
}

func TestCombineExperimentShape(t *testing.T) {
	rows, err := CombineExperiment([]int{1, 16}, combineOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 1 workload × 2 proc counts × 3 systems
		t.Fatalf("rows=%d, want 6", len(rows))
	}
	get := func(system string, procs int) CombineRow {
		for _, r := range rows {
			if r.System == system && r.Procs == procs {
				return r
			}
		}
		t.Fatalf("missing row %s/p=%d", system, procs)
		return CombineRow{}
	}
	base := get("pg2Q", 16)
	bat := get("pgBat", 16)
	fc := get("pgBatFC", 16)
	// Ordering at 16 processors: batching beats the baseline (the paper),
	// and flat combining at least matches batching (the acceptance shape).
	if bat.ThroughputTPS <= base.ThroughputTPS {
		t.Errorf("pgBat %.0f tps not above pg2Q %.0f at 16 procs", bat.ThroughputTPS, base.ThroughputTPS)
	}
	if fc.ThroughputTPS < bat.ThroughputTPS {
		t.Errorf("pgBatFC %.0f tps below pgBat %.0f at 16 procs", fc.ThroughputTPS, bat.ThroughputTPS)
	}
	// The protocol must actually have run.
	if fc.HandoffSaved == 0 || fc.CombinedBatches == 0 {
		t.Errorf("no combining activity at 16 procs: %+v", fc)
	}
	// Non-combining systems must not report combining activity.
	if bat.HandoffSaved != 0 || base.CombinedBatches != 0 {
		t.Errorf("combining counters leaked: bat=%+v base=%+v", bat, base)
	}
}

func TestCombineJSONAndTable(t *testing.T) {
	rows := []CombineRow{
		{Workload: "tpcw", System: "pg2Q", Procs: 16, ThroughputTPS: 100.5, ContentionPerM: 3.25},
		{Workload: "tpcw", System: "pgBatFC", Procs: 16, ThroughputTPS: 220, HandoffSaved: 7, CombinedBatches: 5, CombinedEntries: 40},
	}
	var js bytes.Buffer
	if err := JSONCombine(&js, Options{Seed: 3, Duration: 2 * time.Second}, rows); err != nil {
		t.Fatal(err)
	}
	var rep CombineReport
	if err := json.Unmarshal(js.Bytes(), &rep); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if rep.Experiment != "combine" || rep.Mode != "sim" || rep.Seed != 3 || rep.DurationMS != 2000 {
		t.Fatalf("report header %+v", rep)
	}
	if rep.QueueSize != CombineQueueSize || rep.BatchThreshold != CombineThreshold {
		t.Fatalf("report tuning %+v", rep)
	}
	if len(rep.Rows) != 2 || rep.Rows[1].HandoffSaved != 7 {
		t.Fatalf("report rows %+v", rep.Rows)
	}

	var table bytes.Buffer
	PrintCombine(&table, rows)
	if !strings.Contains(table.String(), "pgBatFC") || !strings.Contains(table.String(), "tpcw") {
		t.Fatalf("table output missing content:\n%s", table.String())
	}
}
