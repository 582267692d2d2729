package bench

import (
	"fmt"
	"io"

	"bpwrapper/internal/buffer"
	"bpwrapper/internal/core"
	"bpwrapper/internal/storage"
	"bpwrapper/internal/trace"
	"bpwrapper/internal/workload"
)

// ---------------------------------------------------------------------------
// Experiment E14 — the sharded pool: hash-partitioned shards, each with its
// own BP-Wrapper + policy instance (buffer.Config.Shards).
//
// The paper rejects distributed-lock designs because they fragment the
// replacement algorithm's access history (Section V-A); E10 measures that
// cost in the simulator behind a single pool lock. The sharded pool is the
// production-shaped variant: the pool *infrastructure* (frames, page
// table, free list, quarantine) shards trivially, and each shard's policy
// lock + batching queue is private. E14 measures what that costs in hit
// ratio: shards × ghost-history policies on one recorded trace, replayed
// sequentially through the REAL sharded pool — the history-fragmentation
// cost, exactly reproducible and therefore committed as the
// results/BENCH_shard.json CI baseline. (Whether batching still pays once
// sharding has divided the lock is a wall-clock question, and benchmark/
// is where those are asked.)

// Shard-experiment tuning: an undersized pool (eviction pressure is what
// exercises ghost history). The queue tuning is the combine experiment's;
// the sweep commits directly, but the committed JSON records it.
const (
	ShardQueueSize    = CombineQueueSize
	ShardThreshold    = CombineThreshold
	ShardHitFrames    = 1024
	shardHitTraceTxns = 120 // ~65k accesses: enough eviction churn, regenerates in well under a minute
)

// ShardHitRow is one (policy, shards) point of the deterministic hit-ratio
// sweep.
type ShardHitRow struct {
	Policy   string  `json:"policy"`
	Shards   int     `json:"shards"`
	Accesses int64   `json:"accesses"`
	HitRatio float64 `json:"hit_ratio"`
}

// ShardReport is the E14 result, the committed baseline.
type ShardReport struct {
	Experiment     string        `json:"experiment"`
	Mode           string        `json:"mode"`
	Seed           int64         `json:"seed"`
	QueueSize      int           `json:"queue_size"`
	BatchThreshold int           `json:"batch_threshold"`
	HitFrames      int           `json:"hit_frames"`
	HitRows        []ShardHitRow `json:"hit_rows"`
}

// ShardExperiment runs E14's hit-ratio sweep; only the seed is consulted.
func ShardExperiment(shardCounts []int, o Options) (*ShardReport, error) {
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 2, 4, 8}
	}
	hitRows, err := shardHitSweep(shardCounts, o.Seed)
	if err != nil {
		return nil, err
	}
	return &ShardReport{
		Experiment:     "shard",
		Mode:           modeSim,
		Seed:           o.Seed,
		QueueSize:      ShardQueueSize,
		BatchThreshold: ShardThreshold,
		HitFrames:      ShardHitFrames,
		HitRows:        hitRows,
	}, nil
}

// shardHitSweep replays one recorded scan-plus-point-lookup trace (the E10
// access shape, where ghost history and sequence detection earn their
// keep) sequentially through real sharded pools. One goroutine, one
// session, direct commits, an in-memory device: byte-identical results on
// every run, which is what lets the JSON land in the repository as a CI
// drift check.
func shardHitSweep(shardCounts []int, seed int64) ([]ShardHitRow, error) {
	wl := scanMixWorkload{
		scanTable: workload.NewTable(1, 1<<22),
		scanLen:   200,
		point:     workload.NewZipf(workload.SyntheticConfig{Pages: 1 << 14, TxnLen: 24, TableID: 100}),
	}
	tr := trace.Record(wl, 8, shardHitTraceTxns, seed)
	policies := []string{"lru", "2q", "lirs", "arc", "seq"}
	var rows []ShardHitRow
	for _, name := range policies {
		for _, shards := range shardCounts {
			row, err := shardHitPoint(name, shards, tr)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// shardHitPoint drives one sharded pool over the trace.
func shardHitPoint(policy string, shards int, tr *trace.Trace) (ShardHitRow, error) {
	pool, err := newPool(policy, buffer.Config{
		Frames:  ShardHitFrames,
		Shards:  shards,
		Wrapper: core.Config{}, // direct commits: the sweep measures history, not locks
		Device:  storage.NewNullDevice(),
	})
	if err != nil {
		return ShardHitRow{}, err
	}
	s := pool.NewSession()
	for _, a := range tr.Accesses {
		ref, err := pool.Get(s, a.Page)
		if err != nil {
			return ShardHitRow{}, fmt.Errorf("shard hit sweep %s/shards=%d: %w", policy, shards, err)
		}
		ref.Release()
	}
	s.Flush()
	st := pool.AccessStats()
	return ShardHitRow{
		Policy:   policy,
		Shards:   shards,
		Accesses: st.Accesses(),
		HitRatio: st.HitRatio(),
	}, nil
}

// PrintShard renders the sweep in paper shape.
func PrintShard(w io.Writer, rep *ShardReport) {
	fmt.Fprintln(w, "Sharded pool (E14) — per-shard BP-Wrapper vs shard count")
	fmt.Fprintf(w, "\nHit-ratio cost of fragmenting the policy history (scan+point trace, %d frames)\n", rep.HitFrames)
	fmt.Fprintf(w, "  %-8s %8s %12s %12s\n", "policy", "shards", "accesses", "hit ratio")
	for _, r := range rep.HitRows {
		fmt.Fprintf(w, "  %-8s %8d %12d %11.2f%%\n", r.Policy, r.Shards, r.Accesses, 100*r.HitRatio)
	}
}
