package bench

import (
	"fmt"
	"io"

	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/sim"
	"bpwrapper/internal/trace"
	"bpwrapper/internal/workload"
)

// Experiment E10 — the distributed-lock alternative of Section V-A.
//
// The paper's Related Work argues that splitting the buffer into multiple
// lists, each under its own lock (Oracle Universal Server, ADABAS, Mr.LRU),
// is not a substitute for BP-Wrapper: contention drops only with many
// partitions, hot pages still collide on whichever partition holds them,
// and the partitioned history breaks algorithms that need the global access
// order. This experiment quantifies both halves of the argument: the
// scalability side on the simulator, the history side as hit ratios on an
// identical trace.

// DistributedRow is one scalability point of the lock-design comparison.
type DistributedRow struct {
	Workload       string
	System         string // pg2Q, pgDist-<k>, pgBatPre
	Procs          int
	ThroughputTPS  float64
	ContentionPerM float64
}

// AblationDistributedLocks compares the naive global lock, hash-partitioned
// locks at each partition count, and BP-Wrapper, at the given processor
// count. It always runs on the simulator (the distributed-lock design
// exists only there; the real pool implements the paper's single-lock
// architecture).
func AblationDistributedLocks(procs int, partitionCounts []int, o Options) ([]DistributedRow, error) {
	o = o.withDefaults()
	if len(partitionCounts) == 0 {
		partitionCounts = []int{4, 16, 64}
	}
	var rows []DistributedRow
	for _, wl := range o.Workloads {
		params := o.simParamsFor(wl)
		runOne := func(name string, cfg sim.Config) error {
			cfg.Procs = procs
			cfg.Workers = o.WorkersPerProc * procs
			cfg.Workload = wl
			cfg.Prewarm = true
			cfg.Duration = sim.Time(o.Duration)
			cfg.Seed = o.Seed
			cfg.Params = &params
			res, err := sim.Run(cfg)
			if err != nil {
				return err
			}
			rows = append(rows, DistributedRow{
				Workload:       wl.Name(),
				System:         name,
				Procs:          procs,
				ThroughputTPS:  res.ThroughputTPS,
				ContentionPerM: res.ContentionPerM,
			})
			return nil
		}
		if err := runOne("pg2Q", sim.Config{Policy: "2q"}); err != nil {
			return nil, err
		}
		for _, k := range partitionCounts {
			name := fmt.Sprintf("pgDist-%d", k)
			if err := runOne(name, sim.Config{Policy: "2q", LockPartitions: k}); err != nil {
				return nil, err
			}
		}
		if err := runOne("pgBatPre", sim.Config{Policy: "2q", Batching: true, Prefetching: true}); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// PartitionHitRow is one hit-ratio measurement of the history-splitting
// cost.
type PartitionHitRow struct {
	Policy     string
	Partitions int // 1 = global
	HitRatio   float64
}

// AblationPartitionHitRatio replays one scan-plus-point-lookup trace
// through each policy globally and hash-partitioned, exposing the history
// damage Section V-A describes: SEQ loses sequence detection entirely, and
// the ghost-based algorithms adapt on fragments.
func AblationPartitionHitRatio(policies []string, partitionCounts []int, capacity int, seed int64) ([]PartitionHitRow, error) {
	if len(policies) == 0 {
		policies = []string{"seq", "2q", "lirs", "lru"}
	}
	if len(partitionCounts) == 0 {
		partitionCounts = []int{8, 64}
	}
	if capacity <= 0 {
		capacity = 1024
	}
	wl := scanMixWorkload{
		scanTable: workload.NewTable(1, 1<<22), // effectively endless: scans never revisit
		scanLen:   200,
		point:     workload.NewZipf(workload.SyntheticConfig{Pages: 1 << 14, TxnLen: 24, TableID: 100}),
	}
	tr := trace.Record(wl, 8, 250, seed)
	factories := replacer.Factories()
	var rows []PartitionHitRow
	for _, name := range policies {
		f, ok := factories[name]
		if !ok {
			return nil, fmt.Errorf("bench: unknown policy %q", name)
		}
		res := trace.Replay(f(capacity), tr)
		rows = append(rows, PartitionHitRow{Policy: name, Partitions: 1, HitRatio: res.HitRatio()})
		for _, k := range partitionCounts {
			p := sim.NewPartitioned(capacity, k, f)
			res := trace.Replay(p, tr)
			rows = append(rows, PartitionHitRow{Policy: name, Partitions: k, HitRatio: res.HitRatio()})
		}
	}
	return rows, nil
}

// scanMixWorkload interleaves *one-shot* sequential scans — each scan
// reads the next fresh range of an effectively endless table, so scanned
// pages are never re-referenced — with Zipf point lookups over a separate
// hot table. This is the access shape where sequence detection earns its
// keep: caching one-shot scan pages is pure waste, and a policy that can
// recognise the sequence protects the point-lookup working set.
type scanMixWorkload struct {
	scanTable workload.Table
	scanLen   uint64
	point     workload.Workload
}

func (m scanMixWorkload) Name() string { return "scan+point" }

func (m scanMixWorkload) DataPages() int {
	return int(m.scanTable.Pages()) + m.point.DataPages()
}

func (m scanMixWorkload) Pages() []page.PageID {
	// Only the point-lookup table is a cacheable working set; the scan
	// table is intentionally unbounded for any realistic buffer.
	return m.point.Pages()
}

func (m scanMixWorkload) NewStream(w int, seed int64) workload.Stream {
	return &scanMixStream{
		m: m,
		// Stripe the streams far apart so their scan ranges never overlap.
		cursor: uint64(w) * (m.scanTable.Pages() / 64),
		point:  m.point.NewStream(w, seed+1),
	}
}

type scanMixStream struct {
	m      scanMixWorkload
	cursor uint64
	point  workload.Stream
	n      int
}

func (s *scanMixStream) NextTxn(buf []workload.Access) []workload.Access {
	s.n++
	if s.n%4 == 0 {
		for i := uint64(0); i < s.m.scanLen; i++ {
			buf = append(buf, workload.Access{Page: s.m.scanTable.Page(s.cursor)})
			s.cursor++
		}
		return buf
	}
	return s.point.NextTxn(buf)
}

// PrintDistributed renders the E10 scalability comparison.
func PrintDistributed(w io.Writer, rows []DistributedRow) {
	fmt.Fprintln(w, "Ablation — distributed locks (Section V-A) vs BP-Wrapper")
	fmt.Fprintf(w, "%-12s %-12s %6s %14s %14s\n", "workload", "system", "procs", "tps", "cont/M")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-12s %6d %14.0f %14.1f\n",
			r.Workload, r.System, r.Procs, r.ThroughputTPS, r.ContentionPerM)
	}
}

// PrintPartitionHitRatio renders the E10 history-splitting comparison.
func PrintPartitionHitRatio(w io.Writer, rows []PartitionHitRow) {
	fmt.Fprintln(w, "Ablation — hit-ratio cost of partitioning the access history")
	fmt.Fprintln(w, "(scan + point-lookup trace; partitions hide block adjacency and split ghosts)")
	fmt.Fprintf(w, "%-8s %12s %12s\n", "policy", "partitions", "hit ratio")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %12d %11.2f%%\n", r.Policy, r.Partitions, 100*r.HitRatio)
	}
}

// Experiment E11 — extension: the adaptive batch threshold.
//
// Table III shows the fixed threshold has a sweet spot between premature
// commits and TryLock starvation; the adaptive variant (sim.Config.
// AdaptiveThreshold, a simulator model only) finds it at run time. This
// experiment compares a bad fixed threshold, the paper's recommended fixed
// threshold, and the adaptive one.

// AdaptiveRow is one measurement of the adaptive-threshold comparison.
type AdaptiveRow struct {
	Workload       string
	Config         string // "fixed-<n>" or "adaptive"
	ThroughputTPS  float64
	ContentionPerM float64
}

// AblationAdaptiveThreshold compares fixed thresholds against the adaptive
// tuner at the given processor count on the simulator.
func AblationAdaptiveThreshold(procs int, fixed []int, o Options) ([]AdaptiveRow, error) {
	o = o.withDefaults()
	if len(fixed) == 0 {
		fixed = []int{64, 32}
	}
	var rows []AdaptiveRow
	for _, wl := range o.Workloads {
		params := o.simParamsFor(wl)
		run := func(label string, threshold int, adaptive bool) error {
			res, err := sim.Run(sim.Config{
				Procs:             procs,
				Workers:           o.WorkersPerProc * procs,
				Policy:            "2q",
				Batching:          true,
				QueueSize:         64,
				BatchThreshold:    threshold,
				AdaptiveThreshold: adaptive,
				Workload:          wl,
				Prewarm:           true,
				Duration:          sim.Time(o.Duration),
				Seed:              o.Seed,
				Params:            &params,
			})
			if err != nil {
				return err
			}
			rows = append(rows, AdaptiveRow{
				Workload:       wl.Name(),
				Config:         label,
				ThroughputTPS:  res.ThroughputTPS,
				ContentionPerM: res.ContentionPerM,
			})
			return nil
		}
		for _, thr := range fixed {
			if err := run(fmt.Sprintf("fixed-%d", thr), thr, false); err != nil {
				return nil, err
			}
		}
		if err := run("adaptive", 32, true); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// PrintAdaptive renders the E11 comparison.
func PrintAdaptive(w io.Writer, rows []AdaptiveRow) {
	fmt.Fprintln(w, "Extension — adaptive batch threshold (queue 64)")
	fmt.Fprintf(w, "%-12s %-10s %14s %14s\n", "workload", "config", "tps", "cont/M")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-10s %14.0f %14.1f\n",
			r.Workload, r.Config, r.ThroughputTPS, r.ContentionPerM)
	}
}
