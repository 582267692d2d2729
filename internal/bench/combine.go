package bench

import (
	"fmt"
	"io"

	"bpwrapper/internal/workload"
)

// ---------------------------------------------------------------------------
// Experiment E12 — commit-path comparison: baseline (one lock acquisition
// per access) vs batched (the paper's TryLock-or-block protocol) vs
// flat-combined (combine.go) across processor counts.
//
// The sweep deliberately runs a small queue (8) and threshold (4): a commit
// every four accesses keeps the policy lock busy enough for the commit
// protocol to matter. At the paper's 64/32 tuning both batched protocols
// sit at the contention-free ceiling and the comparison is a wash — that
// regime is covered by Figures 6/7.

// CombineQueueSize and CombineThreshold are the queue tuning of the
// combine experiment.
const (
	CombineQueueSize = 8
	CombineThreshold = 4
)

// CombineRow is one (workload, system, procs) point of the commit-path
// comparison.
type CombineRow struct {
	Workload       string  `json:"workload"`
	System         string  `json:"system"` // pg2Q, pgBat, pgBatFC
	Procs          int     `json:"procs"`
	ThroughputTPS  float64 `json:"throughput_tps"`
	ContentionPerM float64 `json:"contention_per_m"`

	// Flat-combining activity (pgBatFC rows only).
	HandoffSaved    int64 `json:"handoff_saved,omitempty"`
	CombinedBatches int64 `json:"combined_batches,omitempty"`
	CombinedEntries int64 `json:"combined_entries,omitempty"`
}

// CombineExperiment measures the three commit paths for every workload and
// processor count, fully cached and pre-warmed (pure lock-scalability
// differences, as in the paper's scalability methodology).
func CombineExperiment(procsList []int, o Options) ([]CombineRow, error) {
	o = o.withDefaults()
	if len(procsList) == 0 {
		procsList = []int{1, 2, 4, 8, 16}
	}
	systems := []System{System2Q, SystemBat, SystemFC}
	var rows []CombineRow
	for _, wl := range o.Workloads {
		for _, procs := range procsList {
			for _, sys := range systems {
				row, err := combinePoint(sys, wl, procs, o)
				if err != nil {
					return nil, fmt.Errorf("%s/%s/p=%d: %w", wl.Name(), sys.Name, procs, err)
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// combinePoint measures one combination; beyond the generic figures it
// keeps the simulator's combining-activity counters.
func combinePoint(sys System, wl workload.Workload, procs int, o Options) (CombineRow, error) {
	res, err := runPoint(sys, wl, procs, CombineQueueSize, CombineThreshold, o)
	if err != nil {
		return CombineRow{}, err
	}
	return CombineRow{
		Workload:        wl.Name(),
		System:          sys.Name,
		Procs:           procs,
		ThroughputTPS:   res.ThroughputTPS,
		ContentionPerM:  res.ContentionPerM,
		HandoffSaved:    res.HandoffSaved,
		CombinedBatches: res.CombinedBatches,
		CombinedEntries: res.CombinedEntries,
	}, nil
}

// CombineReport is the JSON shape committed as results/BENCH_combine.json —
// the benchmark baseline future changes are compared against.
type CombineReport struct {
	Experiment     string       `json:"experiment"`
	Mode           string       `json:"mode"`
	Seed           int64        `json:"seed"`
	DurationMS     int64        `json:"duration_ms"`
	QueueSize      int          `json:"queue_size"`
	BatchThreshold int          `json:"batch_threshold"`
	Rows           []CombineRow `json:"rows"`
}

// JSONCombine writes the committed-baseline JSON document.
func JSONCombine(w io.Writer, o Options, rows []CombineRow) error {
	o = o.withDefaults()
	rep := CombineReport{
		Experiment:     "combine",
		Mode:           modeSim,
		Seed:           o.Seed,
		DurationMS:     o.Duration.Milliseconds(),
		QueueSize:      CombineQueueSize,
		BatchThreshold: CombineThreshold,
		Rows:           rows,
	}
	return WriteJSON(w, rep)
}

// PrintCombine renders the comparison per workload, one processor count per
// line, systems side by side.
func PrintCombine(w io.Writer, rows []CombineRow) {
	fmt.Fprintf(w, "Commit-path comparison — baseline vs batched vs flat-combined (queue %d, threshold %d)\n",
		CombineQueueSize, CombineThreshold)
	type key struct {
		wl    string
		procs int
	}
	byPoint := map[key]map[string]CombineRow{}
	var order []key
	for _, r := range rows {
		k := key{r.Workload, r.Procs}
		if byPoint[k] == nil {
			byPoint[k] = map[string]CombineRow{}
			order = append(order, k)
		}
		byPoint[k][r.System] = r
	}
	lastWl := ""
	for _, k := range order {
		if k.wl != lastWl {
			fmt.Fprintf(w, "\n%s\n", k.wl)
			fmt.Fprintf(w, "  %5s  %12s  %12s  %12s  %8s  %9s  %9s\n",
				"procs", "pg2Q tps", "pgBat tps", "pgBatFC tps", "FC/Bat", "handoffs", "combined")
			lastWl = k.wl
		}
		m := byPoint[k]
		base, bat, fc := m[System2Q.Name], m[SystemBat.Name], m[SystemFC.Name]
		ratio := 0.0
		if bat.ThroughputTPS > 0 {
			ratio = fc.ThroughputTPS / bat.ThroughputTPS
		}
		fmt.Fprintf(w, "  %5d  %12.0f  %12.0f  %12.0f  %8.3f  %9d  %9d\n",
			k.procs, base.ThroughputTPS, bat.ThroughputTPS, fc.ThroughputTPS, ratio,
			fc.HandoffSaved, fc.CombinedBatches)
	}
}
