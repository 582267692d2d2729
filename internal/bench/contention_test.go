package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestContentionExperimentShape(t *testing.T) {
	rows, err := ContentionExperiment([]int{1, 16}, combineOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 1 workload × 2 proc counts × 3 systems
		t.Fatalf("rows=%d, want 6", len(rows))
	}
	get := func(system string, procs int) ContentionRow {
		for _, r := range rows {
			if r.System == system && r.Procs == procs {
				return r
			}
		}
		t.Fatalf("missing row %s/p=%d", system, procs)
		return ContentionRow{}
	}
	base := get("pg2Q", 16)
	bat := get("pgBat", 16)
	fc := get("pgBatFC", 16)
	// The baseline takes the lock once per access; batching commits once
	// per ~threshold accesses, so its acquisition rate must be well below.
	if base.AcquisitionsPerM < 900_000 {
		t.Errorf("pg2Q acquisitions/M = %.0f, want ~1e6 (one lock per access)", base.AcquisitionsPerM)
	}
	if bat.AcquisitionsPerM >= base.AcquisitionsPerM/2 {
		t.Errorf("pgBat acquisitions/M = %.0f not well below pg2Q %.0f", bat.AcquisitionsPerM, base.AcquisitionsPerM)
	}
	// Figure 6's shape: batching slashes blocking acquisitions at scale.
	if bat.ContentionPerM >= base.ContentionPerM {
		t.Errorf("pgBat contention/M %.1f not below pg2Q %.1f at 16 procs", bat.ContentionPerM, base.ContentionPerM)
	}
	if fc.ContentionPerM > bat.ContentionPerM {
		t.Errorf("pgBatFC contention/M %.1f above pgBat %.1f at 16 procs", fc.ContentionPerM, bat.ContentionPerM)
	}
	// Blocking requires waiting: contention and wait time must agree.
	if base.ContentionPerM > 0 && base.WaitNSPerAccess == 0 {
		t.Errorf("pg2Q blocks (%.1f/M) but reports zero wait time", base.ContentionPerM)
	}
	// Determinism: the committed baseline depends on sim-mode runs being
	// exactly reproducible.
	again, err := ContentionExperiment([]int{1, 16}, combineOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if rows[i] != again[i] {
			t.Fatalf("sim run not deterministic: %+v vs %+v", rows[i], again[i])
		}
	}
}

func TestContentionJSONAndTable(t *testing.T) {
	rows := []ContentionRow{
		{Workload: "tpcw", System: "pg2Q", Procs: 16, ThroughputTPS: 100.5,
			AcquisitionsPerM: 1e6, ContentionPerM: 312.5, TryFailuresPerM: 0, WaitNSPerAccess: 80.25, HoldNSPerAccess: 40.5},
		{Workload: "tpcw", System: "pgBat", Procs: 16, ThroughputTPS: 220,
			AcquisitionsPerM: 250000, ContentionPerM: 4, TryFailuresPerM: 12, WaitNSPerAccess: 1.5, HoldNSPerAccess: 40},
	}
	var js bytes.Buffer
	if err := JSONContention(&js, Options{Seed: 3, Duration: 2 * time.Second}, rows); err != nil {
		t.Fatal(err)
	}
	var rep ContentionReport
	if err := json.Unmarshal(js.Bytes(), &rep); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if rep.Experiment != "contention" || rep.Mode != "sim" || rep.Seed != 3 || rep.DurationMS != 2000 {
		t.Fatalf("report header %+v", rep)
	}
	if rep.QueueSize != ContentionQueueSize || rep.BatchThreshold != ContentionThreshold {
		t.Fatalf("report tuning %+v", rep)
	}
	if len(rep.Rows) != 2 || rep.Rows[1].TryFailuresPerM != 12 {
		t.Fatalf("report rows %+v", rep.Rows)
	}

	var table bytes.Buffer
	PrintContention(&table, rows)
	for _, want := range []string{"pg2Q", "tpcw", "block/M", "hold ns/a"} {
		if !strings.Contains(table.String(), want) {
			t.Fatalf("table output missing %q:\n%s", want, table.String())
		}
	}
}
