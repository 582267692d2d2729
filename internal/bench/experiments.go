package bench

import (
	"fmt"
	"time"

	"bpwrapper/internal/sim"
	"bpwrapper/internal/workload"
)

// modeSim is the "mode" field of every committed JSON ledger. Each
// experiment runs on the discrete-event multiprocessor simulator
// (internal/sim) or as a single-goroutine replay through the real pool:
// deterministic regardless of how many cores the build host has (see
// DESIGN.md's hardware substitution). Wall-clock measurement lives in
// benchmark/, not here.
const modeSim = "sim"

// Options controls how long each measured point runs and how workloads are
// scaled. The zero value gives quick-but-meaningful defaults; the CLI
// raises them for publication-shaped curves.
type Options struct {
	// Duration is the simulated (virtual) time per point. Zero means
	// 200ms.
	Duration time.Duration

	// WorkersPerProc overcommits the system as the paper does. Zero
	// means 2.
	WorkersPerProc int

	// Seed feeds the workload generators.
	Seed int64

	// Workloads overrides the default benchmark set (tpcw, tpcc,
	// tablescan) for experiments that sweep workloads.
	Workloads []workload.Workload

	// Params overrides the simulator's cost constants.
	Params *sim.Params
}

func (o Options) withDefaults() Options {
	if o.Duration <= 0 {
		o.Duration = 200 * time.Millisecond
	}
	if o.WorkersPerProc <= 0 {
		o.WorkersPerProc = 2
	}
	if len(o.Workloads) == 0 {
		o.Workloads = []workload.Workload{
			workload.NewTPCW(workload.TPCWConfig{}),
			workload.NewTPCC(workload.TPCCConfig{}),
			workload.NewTableScan(workload.TableScanConfig{}),
		}
	}
	return o
}

// simParamsFor returns the cost constants for a workload: table scans
// process pages faster than transaction logic does, which is why the paper
// sees TableScan saturate earliest.
func (o Options) simParamsFor(wl workload.Workload) sim.Params {
	if o.Params != nil {
		return *o.Params
	}
	p := sim.DefaultParams()
	if wl.Name() == "tablescan" {
		p.UserWork = 3500
	}
	return p
}

// runPoint measures one combination with the working set fully cached and
// pre-warmed — the paper's scalability methodology, which makes every
// access a hit so that differences are pure lock-scalability differences.
func runPoint(sys System, wl workload.Workload, procs int, queueSize, threshold int, o Options) (sim.Result, error) {
	return runPointSim(sys, wl, procs, queueSize, threshold, 0, true, o)
}

// runPointSim executes a point on the discrete-event simulator. Points
// that are not pre-warmed (the Figure 8 I/O-bound sweeps) get a warm-up
// phase of twice the measured duration so cold-start misses do not pollute
// the steady-state hit ratio.
func runPointSim(sys System, wl workload.Workload, procs, queueSize, threshold, frames int, prewarm bool, o Options) (sim.Result, error) {
	params := o.simParamsFor(wl)
	var warmup sim.Time
	if !prewarm {
		warmup = sim.Time(2 * o.Duration)
	}
	return sim.Run(sim.Config{
		Procs:          procs,
		Workers:        o.WorkersPerProc * procs,
		Policy:         sys.Policy,
		Batching:       sys.Batching,
		Prefetching:    sys.Prefetching,
		FlatCombining:  sys.FlatCombining,
		QueueSize:      queueSize,
		BatchThreshold: threshold,
		Workload:       wl,
		Frames:         frames,
		Prewarm:        prewarm,
		Warmup:         warmup,
		Duration:       sim.Time(o.Duration),
		Seed:           o.Seed,
		Params:         &params,
	})
}

// ---------------------------------------------------------------------------
// Experiment E1 — Figure 2: lock acquisition + holding time per access as a
// function of batch size.

// BatchSizeRow is one point of Figure 2.
type BatchSizeRow struct {
	BatchSize         int
	LockTimePerAccess time.Duration
	ContentionPerM    float64
}

// Fig2BatchSize reproduces Figure 2: the pgBat system (2Q + batching) on
// the TPC-W-like workload at the given processor count, with the batch
// size (the batch threshold — "the number of accumulated page accesses
// before acquiring a lock") swept over powers of two. The queue is sized
// at twice the threshold so the TryLock protocol operates as deployed;
// threshold == queue size is the degenerate configuration Table III
// covers. The paper used 16 processors and batch sizes 1..64.
func Fig2BatchSize(procs int, batchSizes []int, o Options) ([]BatchSizeRow, error) {
	o = o.withDefaults()
	if len(batchSizes) == 0 {
		batchSizes = []int{1, 2, 4, 8, 16, 32, 64}
	}
	wl := o.Workloads[0]
	rows := make([]BatchSizeRow, 0, len(batchSizes))
	for _, bs := range batchSizes {
		pt, err := runPoint(SystemBat, wl, procs, 2*bs, bs, o)
		if err != nil {
			return nil, err
		}
		rows = append(rows, BatchSizeRow{
			BatchSize:         bs,
			LockTimePerAccess: pt.LockTimePerAccess,
			ContentionPerM:    pt.ContentionPerM,
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Experiments E2/E3 — Figures 6 and 7: throughput, average response time,
// and average lock contention for the five systems as processors scale.

// ScalabilityRow is one point of Figures 6/7.
type ScalabilityRow struct {
	Workload       string
	System         string
	Procs          int
	ThroughputTPS  float64
	AvgResponse    time.Duration
	ContentionPerM float64
}

// Scalability reproduces Figures 6 (procsList 1..16) and 7 (1..8): every
// system × workload × processor count, fully cached and pre-warmed.
func Scalability(systems []System, procsList []int, o Options) ([]ScalabilityRow, error) {
	o = o.withDefaults()
	if len(systems) == 0 {
		systems = Systems()
	}
	if len(procsList) == 0 {
		procsList = []int{1, 2, 4, 8, 16}
	}
	var rows []ScalabilityRow
	for _, wl := range o.Workloads {
		for _, sys := range systems {
			for _, procs := range procsList {
				pt, err := runPoint(sys, wl, procs, 0, 0, o)
				if err != nil {
					return nil, fmt.Errorf("%s/%s/p=%d: %w", wl.Name(), sys.Name, procs, err)
				}
				rows = append(rows, ScalabilityRow{
					Workload:       wl.Name(),
					System:         sys.Name,
					Procs:          procs,
					ThroughputTPS:  pt.ThroughputTPS,
					AvgResponse:    pt.AvgResponse,
					ContentionPerM: pt.ContentionPerM,
				})
			}
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Experiment E4 — Table II: queue-size sensitivity.

// QueueSizeRow is one row of Table II for one workload.
type QueueSizeRow struct {
	Workload       string
	QueueSize      int
	ThroughputTPS  float64
	ContentionPerM float64
}

// TableIIQueueSize reproduces Table II: pgBat at the given processor count
// with the FIFO queue size swept and the batch threshold held at half the
// queue size.
func TableIIQueueSize(procs int, queueSizes []int, o Options) ([]QueueSizeRow, error) {
	o = o.withDefaults()
	if len(queueSizes) == 0 {
		queueSizes = []int{1, 2, 4, 8, 16, 32, 64}
	}
	var rows []QueueSizeRow
	for _, wl := range o.Workloads {
		for _, qs := range queueSizes {
			thr := qs / 2
			if thr < 1 {
				thr = 1
			}
			pt, err := runPoint(SystemBat, wl, procs, qs, thr, o)
			if err != nil {
				return nil, err
			}
			rows = append(rows, QueueSizeRow{
				Workload:       wl.Name(),
				QueueSize:      qs,
				ThroughputTPS:  pt.ThroughputTPS,
				ContentionPerM: pt.ContentionPerM,
			})
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Experiment E5 — Table III: batch-threshold sensitivity.

// ThresholdRow is one row of Table III for one workload.
type ThresholdRow struct {
	Workload       string
	Threshold      int
	ThroughputTPS  float64
	ContentionPerM float64
}

// TableIIIThreshold reproduces Table III: pgBat with queue size fixed at 64
// and the batch threshold swept from 1 to 64.
func TableIIIThreshold(procs int, thresholds []int, o Options) ([]ThresholdRow, error) {
	o = o.withDefaults()
	if len(thresholds) == 0 {
		thresholds = []int{1, 2, 4, 8, 16, 32, 48, 64}
	}
	var rows []ThresholdRow
	for _, wl := range o.Workloads {
		for _, thr := range thresholds {
			pt, err := runPoint(SystemBat, wl, procs, 64, thr, o)
			if err != nil {
				return nil, err
			}
			rows = append(rows, ThresholdRow{
				Workload:       wl.Name(),
				Threshold:      thr,
				ThroughputTPS:  pt.ThroughputTPS,
				ContentionPerM: pt.ContentionPerM,
			})
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Experiment E6 — Figure 8: overall performance (hit ratio and throughput)
// with the buffer smaller than the data, over a simulated disk.

// OverallRow is one point of Figure 8.
type OverallRow struct {
	Workload      string
	System        string
	Frames        int
	BufferMB      float64
	HitRatio      float64
	ThroughputTPS float64
}

// Fig8Overall reproduces Figure 8: pgClock, pg2Q and pgBatPre at the given
// processor count with the buffer size swept as fractions of the database
// size. No pre-warm: misses are the point. The disk is the simulator's.
func Fig8Overall(procs int, fractions []float64, o Options) ([]OverallRow, error) {
	o = o.withDefaults()
	if len(fractions) == 0 {
		fractions = []float64{1.0 / 64, 1.0 / 32, 1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2, 1}
	}
	systems := []System{SystemClock, System2Q, SystemBatPre}
	var rows []OverallRow
	for _, wl := range o.Workloads {
		for _, frac := range fractions {
			frames := int(float64(wl.DataPages()) * frac)
			if frames < 64 {
				frames = 64
			}
			for _, sys := range systems {
				// A buffer that holds the whole database reaches its
				// steady state the moment it is loaded, so pre-warm it
				// directly; smaller buffers warm up with live traffic.
				prewarm := frames >= wl.DataPages()
				pt, err := runPointSim(sys, wl, procs, 0, 0, frames, prewarm, o)
				if err != nil {
					return nil, err
				}
				rows = append(rows, OverallRow{
					Workload:      wl.Name(),
					System:        sys.Name,
					Frames:        frames,
					BufferMB:      float64(frames) * 8192 / (1 << 20),
					HitRatio:      pt.HitRatio,
					ThroughputTPS: pt.ThroughputTPS,
				})
			}
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Experiment E7 — ablation: private vs shared FIFO queue.

// SharedQueueRow compares the two queue designs at one processor count.
type SharedQueueRow struct {
	Workload       string
	Design         string // "private" or "shared"
	Procs          int
	ThroughputTPS  float64
	ContentionPerM float64
}

// AblationSharedQueue quantifies Section III-A's design argument for
// per-thread queues over one shared queue. It runs on the simulator only:
// the shared queue exists nowhere but in internal/sim's model, and the
// argument is about 16 processors, which the wall clock of a small host
// cannot make.
func AblationSharedQueue(procs int, o Options) ([]SharedQueueRow, error) {
	o = o.withDefaults()
	var rows []SharedQueueRow
	for _, wl := range o.Workloads {
		for _, shared := range []bool{false, true} {
			pt, err := sharedQueuePoint(wl, procs, shared, o)
			if err != nil {
				return nil, err
			}
			design := "private"
			if shared {
				design = "shared"
			}
			rows = append(rows, SharedQueueRow{
				Workload:       wl.Name(),
				Design:         design,
				Procs:          procs,
				ThroughputTPS:  pt.ThroughputTPS,
				ContentionPerM: pt.ContentionPerM,
			})
		}
	}
	return rows, nil
}

func sharedQueuePoint(wl workload.Workload, procs int, shared bool, o Options) (sim.Result, error) {
	params := o.simParamsFor(wl)
	return sim.Run(sim.Config{
		Procs:       procs,
		Workers:     o.WorkersPerProc * procs,
		Policy:      "2q",
		Batching:    true,
		SharedQueue: shared,
		Workload:    wl,
		Prewarm:     true,
		Duration:    sim.Time(o.Duration),
		Seed:        o.Seed,
		Params:      &params,
	})
}

// ---------------------------------------------------------------------------
// Experiment E8 — ablation: BP-Wrapper is policy-independent.

// PolicyRow compares wrapped and unwrapped configurations of one policy.
type PolicyRow struct {
	Workload       string
	Policy         string
	System         string // "plain" (global lock) or "bpwrapper"
	Procs          int
	ThroughputTPS  float64
	ContentionPerM float64
}

// AblationPolicies repeats the scalability measurement with LIRS and MQ in
// place of 2Q, as the paper reports doing ("we do not observe significant
// performance differences", Section IV-A).
func AblationPolicies(procs int, policies []string, o Options) ([]PolicyRow, error) {
	o = o.withDefaults()
	if len(policies) == 0 {
		policies = []string{"2q", "lirs", "mq"}
	}
	var rows []PolicyRow
	for _, wl := range o.Workloads {
		for _, pol := range policies {
			for _, wrapped := range []bool{false, true} {
				sys := System2Q
				label := "plain"
				if wrapped {
					sys = SystemBatPre
					label = "bpwrapper"
				}
				sys.Policy = pol
				pt, err := runPoint(sys, wl, procs, 0, 0, o)
				if err != nil {
					return nil, err
				}
				rows = append(rows, PolicyRow{
					Workload:       wl.Name(),
					Policy:         pol,
					System:         label,
					Procs:          procs,
					ThroughputTPS:  pt.ThroughputTPS,
					ContentionPerM: pt.ContentionPerM,
				})
			}
		}
	}
	return rows, nil
}
