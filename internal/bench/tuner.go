package bench

import (
	"fmt"
	"io"

	"bpwrapper/internal/buffer"
	"bpwrapper/internal/control"
	"bpwrapper/internal/core"
	"bpwrapper/internal/metrics"
	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/storage"
	"bpwrapper/internal/trace"
	"bpwrapper/internal/workload"
)

// ---------------------------------------------------------------------------
// Experiment E19 — the self-tuning pool: the internal/control loop driving
// online resharding and policy hot-swap on workloads where the configured
// topology or policy is measurably wrong.
//
// Two deterministic phases, both replayed sequentially (one goroutine, one
// session, direct commits, controller Steps at a fixed access cadence), so
// the JSON document is byte-stable and lands in the repository as the CI
// drift baseline:
//
//   - reshard recovery: E14 measured SEQ losing hit ratio when sharding
//     fragments its sequence history (19.44% at 1 shard → 17.27% at 2+ on
//     the scan+point trace). Phase A starts the same trace on a 4-shard
//     pool and lets the controller compare the incumbent's unsharded ghost
//     score against the actual hit ratio: the fragmentation gap walks the
//     topology back down, and the recovered ratio is reported against both
//     static baselines. Acceptance: the tuned pool recovers at least half
//     of the measured loss.
//   - policy hot-swap: a cyclic loop over twice the frame budget is the
//     canonical anti-LRU trace — 2Q's queues evict every page just before
//     its reuse while LIRS pins a stable LIR set. Phase B configures 2Q,
//     lets the shadow ghost caches score the candidates on the sampled
//     stream, and reports the hit ratio before and after the controller
//     swaps the pool to the scorer's pick.

// Tuner phase tuning. Phase A reuses the E14 trace shape and frame budget
// (ShardHitFrames) so its baselines line up with BENCH_shard.json; the
// controller cadence and margins below are the experiment's configuration,
// not defaults.
const (
	tunerStepEvery   = 4096 // accesses between controller Steps
	tunerMaxPasses   = 6    // tuning passes before the measurement pass
	tunerSampleRate  = 1    // full-stream shadow: SEQ's sequence detection needs unbroken runs, which spatial subsampling would scatter
	tunerGapMargin   = 0.01 // ghost-vs-actual gap that shrinks the topology
	tunerLoopPages   = 512  // phase B loop length
	tunerLoopFrames  = 256  // phase B frame budget (half the loop)
	tunerLoopPasses  = 8    // phase B tuning passes
	tunerLoopTable   = 77   // table id of the loop pages
	tunerSwapPat     = 2    // phase B swap patience (Steps)
	tunerSwapMargin  = 0.05
	tunerLoopSamples = 1 // phase B samples every access: full-stream shadows
)

// TunerAction is one controller actuation, tagged with the tuning pass it
// happened in.
type TunerAction struct {
	Pass   int    `json:"pass"`
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
}

// TunerReshardPhase is phase A: reshard recovery under sequential load.
type TunerReshardPhase struct {
	Policy         string        `json:"policy"`
	StartShards    int           `json:"start_shards"`
	FinalShards    int           `json:"final_shards"`
	Baseline1      float64       `json:"baseline_1shard_hit_ratio"`
	BaselineStart  float64       `json:"baseline_4shard_hit_ratio"`
	TunedRatio     float64       `json:"tuned_hit_ratio"`
	RecoveredFrac  float64       `json:"recovered_fraction"`
	Actions        []TunerAction `json:"actions"`
	MeasuredAccess int64         `json:"measured_accesses"`
}

// TunerSwapPhase is phase B: policy hot-swap on an anti-LRU loop.
type TunerSwapPhase struct {
	Configured     string        `json:"configured_policy"`
	FinalPolicy    string        `json:"final_policy"`
	LoopPages      int           `json:"loop_pages"`
	Frames         int           `json:"frames"`
	StaticRatio    float64       `json:"static_hit_ratio"`
	TunedRatio     float64       `json:"tuned_hit_ratio"`
	Actions        []TunerAction `json:"actions"`
	MeasuredAccess int64         `json:"measured_accesses"`
}

// TunerReport is the full E19 result.
type TunerReport struct {
	Experiment string            `json:"experiment"`
	Seed       int64             `json:"seed"`
	HitFrames  int               `json:"hit_frames"`
	Reshard    TunerReshardPhase `json:"reshard"`
	Swap       TunerSwapPhase    `json:"swap"`
}

// TunerExperiment runs E19. Both phases are deterministic; only the seed
// is consulted.
func TunerExperiment(o Options) (*TunerReport, error) {
	o = o.withDefaults()
	rep := &TunerReport{
		Experiment: "tuner",
		Seed:       o.Seed,
		HitFrames:  ShardHitFrames,
	}
	reshard, err := tunerReshardPhase(o.Seed)
	if err != nil {
		return nil, err
	}
	rep.Reshard = reshard
	swap, err := tunerSwapPhase()
	if err != nil {
		return nil, err
	}
	rep.Swap = swap
	return rep, nil
}

// tunerTrace regenerates the E14 scan+point trace so the baselines line up
// with BENCH_shard.json.
func tunerTrace(seed int64) *trace.Trace {
	wl := scanMixWorkload{
		scanTable: workload.NewTable(1, 1<<22),
		scanLen:   200,
		point:     workload.NewZipf(workload.SyntheticConfig{Pages: 1 << 14, TxnLen: 24, TableID: 100}),
	}
	return trace.Record(wl, 8, shardHitTraceTxns, seed)
}

// replayPass drives one full pass of the trace through the pool, calling
// step (if non-nil) every tunerStepEvery accesses.
func replayPass(pool *buffer.Pool, s *buffer.Session, tr *trace.Trace, step func()) error {
	for i, a := range tr.Accesses {
		ref, err := pool.Get(s, a.Page)
		if err != nil {
			return fmt.Errorf("tuner replay: %w", err)
		}
		ref.Release()
		if step != nil && (i+1)%tunerStepEvery == 0 {
			s.Flush()
			step()
		}
	}
	s.Flush()
	return nil
}

// tunerReshardPhase runs phase A.
func tunerReshardPhase(seed int64) (TunerReshardPhase, error) {
	const policy = "seq"
	const startShards = 4
	tr := tunerTrace(seed)
	f := replacer.Factories()[policy]

	// Static baselines: the same replay on fixed 1- and 4-shard pools.
	base1, err := shardHitPoint(policy, 1, tr)
	if err != nil {
		return TunerReshardPhase{}, err
	}
	baseN, err := shardHitPoint(policy, startShards, tr)
	if err != nil {
		return TunerReshardPhase{}, err
	}

	pool := buffer.New(buffer.Config{
		Frames:        ShardHitFrames,
		Shards:        startShards,
		PolicyFactory: f,
		Wrapper:       core.Config{}, // direct commits: the phase measures history, not locks
		Device:        storage.NewNullDevice(),
	})
	defer pool.Close()
	ctl := control.New(control.Config{
		Pool:            pool,
		SampleRate:      tunerSampleRate,
		RingSize:        1 << 15,
		Candidates:      []string{policy}, // incumbent only: isolate the reshard rule
		GapMargin:       tunerGapMargin,
		ReshardCooldown: 2,
		MinShards:       1,
	})
	defer ctl.Stop()

	ph := TunerReshardPhase{
		Policy:        policy,
		StartShards:   startShards,
		Baseline1:     base1.HitRatio,
		BaselineStart: baseN.HitRatio,
		Actions:       []TunerAction{},
	}
	s := pool.NewSession()
	for pass := 0; pass < tunerMaxPasses && pool.Stats().Shards > 1; pass++ {
		p := pass
		err := replayPass(pool, s, tr, func() {
			for _, a := range ctl.Step() {
				ph.Actions = append(ph.Actions, TunerAction{Pass: p, Kind: string(a.Kind), Detail: a.Detail})
			}
		})
		if err != nil {
			return TunerReshardPhase{}, err
		}
	}
	ph.FinalShards = pool.Stats().Shards

	// Measurement pass against the settled topology, no controller Steps.
	before := pool.AccessStats()
	if err := replayPass(pool, s, tr, nil); err != nil {
		return TunerReshardPhase{}, err
	}
	ph.TunedRatio, ph.MeasuredAccess = windowHitRatio(before, pool.AccessStats())
	if gap := ph.Baseline1 - ph.BaselineStart; gap > 0 {
		ph.RecoveredFrac = (ph.TunedRatio - ph.BaselineStart) / gap
	}
	return ph, nil
}

// windowHitRatio returns the hit ratio and the number of the accesses
// between two snapshots of a pool's only-growing access counters.
func windowHitRatio(before, after metrics.AccessSnapshot) (float64, int64) {
	w := metrics.AccessSnapshot{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses}
	return w.HitRatio(), w.Accesses()
}

// loopPass drives one cyclic pass over the phase B loop.
func loopPass(pool *buffer.Pool, s *buffer.Session, step func()) error {
	for i := 0; i < tunerLoopPages; i++ {
		id := page.NewPageID(tunerLoopTable, uint64(i)+1)
		ref, err := pool.Get(s, id)
		if err != nil {
			return fmt.Errorf("tuner loop: %w", err)
		}
		ref.Release()
	}
	s.Flush()
	if step != nil {
		step()
	}
	return nil
}

// tunerSwapPhase runs phase B.
func tunerSwapPhase() (TunerSwapPhase, error) {
	const configured = "2q"
	factories := replacer.Factories()

	// Static baseline: the configured policy, no controller; the last pass
	// is the steady-state ratio.
	static := buffer.New(buffer.Config{
		Frames:        tunerLoopFrames,
		PolicyFactory: factories[configured],
		Wrapper:       core.Config{},
		Device:        storage.NewNullDevice(),
	})
	ss := static.NewSession()
	var staticRatio float64
	for pass := 0; pass < tunerLoopPasses; pass++ {
		before := static.AccessStats()
		if err := loopPass(static, ss, nil); err != nil {
			static.Close()
			return TunerSwapPhase{}, err
		}
		staticRatio, _ = windowHitRatio(before, static.AccessStats())
	}
	static.Close()

	tuned := buffer.New(buffer.Config{
		Frames:        tunerLoopFrames,
		PolicyFactory: factories[configured],
		Wrapper:       core.Config{},
		Device:        storage.NewNullDevice(),
	})
	defer tuned.Close()
	ctl := control.New(control.Config{
		Pool:         tuned,
		SampleRate:   tunerLoopSamples,
		RingSize:     1 << 14,
		Candidates:   []string{"2q", "lirs", "clockpro"},
		SwapMargin:   tunerSwapMargin,
		SwapPatience: tunerSwapPat,
		MinWindow:    tunerLoopPages,
		MaxShards:    1, // single-shard phase: isolate the swap rule
	})
	defer ctl.Stop()

	ph := TunerSwapPhase{
		Configured:  configured,
		LoopPages:   tunerLoopPages,
		Frames:      tunerLoopFrames,
		StaticRatio: staticRatio,
		Actions:     []TunerAction{},
	}
	ts := tuned.NewSession()
	for pass := 0; pass < tunerLoopPasses; pass++ {
		p := pass
		err := loopPass(tuned, ts, func() {
			for _, a := range ctl.Step() {
				ph.Actions = append(ph.Actions, TunerAction{Pass: p, Kind: string(a.Kind), Detail: a.Detail})
			}
		})
		if err != nil {
			return TunerSwapPhase{}, err
		}
	}

	// Measurement pass: steady state under the swapped-in policy.
	before := tuned.AccessStats()
	if err := loopPass(tuned, ts, nil); err != nil {
		return TunerSwapPhase{}, err
	}
	ph.TunedRatio, ph.MeasuredAccess = windowHitRatio(before, tuned.AccessStats())
	ph.FinalPolicy = tuned.Stats().PerShard[0].Policy
	return ph, nil
}

// PrintTuner renders both phases.
func PrintTuner(w io.Writer, rep *TunerReport) {
	fmt.Fprintln(w, "Self-tuning pool (E19) — controller vs misconfigured topology and policy")
	r := rep.Reshard
	fmt.Fprintf(w, "\nPhase A — reshard recovery (%s, scan+point trace, %d frames)\n", r.Policy, rep.HitFrames)
	fmt.Fprintf(w, "  static %d-shard baseline  %6.2f%%\n", r.StartShards, 100*r.BaselineStart)
	fmt.Fprintf(w, "  static 1-shard baseline  %6.2f%%\n", 100*r.Baseline1)
	fmt.Fprintf(w, "  tuned (final %d shards)   %6.2f%%  (recovered %.0f%% of the loss)\n",
		r.FinalShards, 100*r.TunedRatio, 100*r.RecoveredFrac)
	for _, a := range r.Actions {
		fmt.Fprintf(w, "    pass %d: %-13s %s\n", a.Pass, a.Kind, a.Detail)
	}
	s := rep.Swap
	fmt.Fprintf(w, "\nPhase B — policy hot-swap (loop of %d pages over %d frames)\n", s.LoopPages, s.Frames)
	fmt.Fprintf(w, "  static %-9s %6.2f%%\n", s.Configured, 100*s.StaticRatio)
	fmt.Fprintf(w, "  tuned  %-9s %6.2f%%\n", s.FinalPolicy, 100*s.TunedRatio)
	for _, a := range s.Actions {
		fmt.Fprintf(w, "    pass %d: %-13s %s\n", a.Pass, a.Kind, a.Detail)
	}
}
