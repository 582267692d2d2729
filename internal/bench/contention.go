package bench

import (
	"fmt"
	"io"

	"bpwrapper/internal/workload"
)

// ---------------------------------------------------------------------------
// Experiment E15 — lock-contention anatomy: the Figure 6 view. Where E12
// compares the commit paths by throughput, this sweep reports the lock
// behaviour itself — acquisitions, blocking acquisitions, failed TryLocks,
// and wait/hold time per access — for baseline (pg2Q), batched (pgBat),
// and flat-combined (pgBatFC) across processor counts. It is the offline
// twin of the live lock histograms the obs registry exports: the same
// quantities, measured in a controlled sweep and committed as a baseline.
//
// Like E12 it runs the small queue (8) and threshold (4) so the lock stays
// busy enough for the protocols to differ; at the paper's 64/32 tuning
// both batched paths sit at the contention-free floor.

// ContentionQueueSize and ContentionThreshold are the queue tuning of the
// contention sweep (shared with the combine experiment by design, so E12
// and E15 describe the same operating point).
const (
	ContentionQueueSize = CombineQueueSize
	ContentionThreshold = CombineThreshold
)

// ContentionRow is one (workload, system, procs) point of the sweep. The
// per-million figures are normalized by page accesses, the paper's
// reporting unit; the per-access times are in virtual nanoseconds.
type ContentionRow struct {
	Workload string `json:"workload"`
	System   string `json:"system"` // pg2Q, pgBat, pgBatFC
	Procs    int    `json:"procs"`

	ThroughputTPS    float64 `json:"throughput_tps"`
	AcquisitionsPerM float64 `json:"acquisitions_per_m"`
	ContentionPerM   float64 `json:"contention_per_m"`
	TryFailuresPerM  float64 `json:"try_failures_per_m"`
	WaitNSPerAccess  float64 `json:"wait_ns_per_access"`
	HoldNSPerAccess  float64 `json:"hold_ns_per_access"`
}

// ContentionExperiment measures the lock anatomy of the three commit paths
// for every workload and processor count, fully cached and pre-warmed.
func ContentionExperiment(procsList []int, o Options) ([]ContentionRow, error) {
	o = o.withDefaults()
	if len(procsList) == 0 {
		procsList = []int{1, 2, 4, 8, 16}
	}
	systems := []System{System2Q, SystemBat, SystemFC}
	var rows []ContentionRow
	for _, wl := range o.Workloads {
		for _, procs := range procsList {
			for _, sys := range systems {
				row, err := contentionPoint(sys, wl, procs, o)
				if err != nil {
					return nil, fmt.Errorf("%s/%s/p=%d: %w", wl.Name(), sys.Name, procs, err)
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// perMillion normalizes a count by accesses.
func perMillion(n, accesses int64) float64 {
	if accesses == 0 {
		return 0
	}
	return float64(n) / float64(accesses) * 1e6
}

// perAccess normalizes nanoseconds by accesses.
func perAccess(nanos, accesses int64) float64 {
	if accesses == 0 {
		return 0
	}
	return float64(nanos) / float64(accesses)
}

// contentionPoint measures one combination and normalizes the simulator's
// full lock anatomy by accesses.
func contentionPoint(sys System, wl workload.Workload, procs int, o Options) (ContentionRow, error) {
	res, err := runPoint(sys, wl, procs, ContentionQueueSize, ContentionThreshold, o)
	if err != nil {
		return ContentionRow{}, err
	}
	return ContentionRow{
		Workload:         wl.Name(),
		System:           sys.Name,
		Procs:            procs,
		ThroughputTPS:    res.ThroughputTPS,
		AcquisitionsPerM: perMillion(res.Lock.Acquisitions, res.Accesses),
		ContentionPerM:   res.ContentionPerM,
		TryFailuresPerM:  perMillion(res.Lock.TryFailures, res.Accesses),
		WaitNSPerAccess:  perAccess(int64(res.Lock.WaitTime), res.Accesses),
		HoldNSPerAccess:  perAccess(int64(res.Lock.HoldTime), res.Accesses),
	}, nil
}

// ContentionReport is the JSON shape committed as
// results/BENCH_contention.json.
type ContentionReport struct {
	Experiment     string          `json:"experiment"`
	Mode           string          `json:"mode"`
	Seed           int64           `json:"seed"`
	DurationMS     int64           `json:"duration_ms"`
	QueueSize      int             `json:"queue_size"`
	BatchThreshold int             `json:"batch_threshold"`
	Rows           []ContentionRow `json:"rows"`
}

// JSONContention writes the committed-baseline JSON document.
func JSONContention(w io.Writer, o Options, rows []ContentionRow) error {
	o = o.withDefaults()
	rep := ContentionReport{
		Experiment:     "contention",
		Mode:           modeSim,
		Seed:           o.Seed,
		DurationMS:     o.Duration.Milliseconds(),
		QueueSize:      ContentionQueueSize,
		BatchThreshold: ContentionThreshold,
		Rows:           rows,
	}
	return WriteJSON(w, rep)
}

// PrintContention renders the sweep per workload: one line per
// (procs, system), the lock anatomy side by side.
func PrintContention(w io.Writer, rows []ContentionRow) {
	fmt.Fprintf(w, "Lock-contention anatomy — per million accesses / per access (queue %d, threshold %d)\n",
		ContentionQueueSize, ContentionThreshold)
	lastWl := ""
	for _, r := range rows {
		if r.Workload != lastWl {
			fmt.Fprintf(w, "\n%s\n", r.Workload)
			fmt.Fprintf(w, "  %5s  %-8s  %12s  %12s  %12s  %12s  %10s  %10s\n",
				"procs", "system", "tps", "acq/M", "block/M", "tryfail/M", "wait ns/a", "hold ns/a")
			lastWl = r.Workload
		}
		fmt.Fprintf(w, "  %5d  %-8s  %12.0f  %12.0f  %12.1f  %12.1f  %10.1f  %10.1f\n",
			r.Procs, r.System, r.ThroughputTPS, r.AcquisitionsPerM, r.ContentionPerM,
			r.TryFailuresPerM, r.WaitNSPerAccess, r.HoldNSPerAccess)
	}
}
