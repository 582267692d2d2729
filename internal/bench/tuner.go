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
)

// ---------------------------------------------------------------------------
// Experiment E19 — the self-tuning pool: the internal/control loop driving
// policy hot-swap on a workload where the configured policy is measurably
// wrong.
//
// A cyclic loop over twice the frame budget is the canonical anti-LRU
// trace: 2Q's queues evict every page just before its reuse while LIRS pins
// a stable LIR set. The experiment configures 2Q, lets the shadow ghost
// caches score the candidates on the sampled stream, and reports the hit
// ratio before and after the controller swaps the pool to the scorer's
// pick. It is replayed sequentially (one goroutine, one session, direct
// commits, a controller Step after every pass), so the JSON document is
// byte-stable and lands in the repository as the CI drift baseline.

// The experiment's configuration, not the controller's defaults.
const (
	tunerLoopPages   = 512 // loop length
	tunerLoopFrames  = 256 // frame budget (half the loop)
	tunerLoopPasses  = 8   // tuning passes
	tunerLoopTable   = 77  // table id of the loop pages
	tunerSwapPat     = 2   // swap patience (Steps)
	tunerSwapMargin  = 0.05
	tunerLoopSamples = 1 // sample every access: full-stream shadows
)

// TunerAction is one controller actuation, tagged with the tuning pass it
// happened in.
type TunerAction struct {
	Pass   int    `json:"pass"`
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
}

// TunerSwapPhase is the policy hot-swap on an anti-LRU loop.
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
	Experiment string         `json:"experiment"`
	Seed       int64          `json:"seed"`
	Swap       TunerSwapPhase `json:"swap"`
}

// TunerExperiment runs E19. It is deterministic, and the seed is only
// recorded.
func TunerExperiment(o Options) (*TunerReport, error) {
	o = o.withDefaults()
	rep := &TunerReport{
		Experiment: "tuner",
		Seed:       o.Seed,
	}
	swap, err := tunerSwapPhase()
	if err != nil {
		return nil, err
	}
	rep.Swap = swap
	return rep, nil
}

// windowHitRatio returns the hit ratio and the number of the accesses
// between two snapshots of a pool's only-growing access counters.
func windowHitRatio(before, after metrics.AccessSnapshot) (float64, int64) {
	w := metrics.AccessSnapshot{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses}
	return w.HitRatio(), w.Accesses()
}

// loopPass drives one cyclic pass over the loop.
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

// tunerSwapPhase runs the experiment.
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

// PrintTuner renders the experiment.
func PrintTuner(w io.Writer, rep *TunerReport) {
	fmt.Fprintln(w, "Self-tuning pool (E19) — controller vs a misconfigured policy")
	s := rep.Swap
	fmt.Fprintf(w, "\nPhase B — policy hot-swap (loop of %d pages over %d frames)\n", s.LoopPages, s.Frames)
	fmt.Fprintf(w, "  static %-9s %6.2f%%\n", s.Configured, 100*s.StaticRatio)
	fmt.Fprintf(w, "  tuned  %-9s %6.2f%%\n", s.FinalPolicy, 100*s.TunedRatio)
	for _, a := range s.Actions {
		fmt.Fprintf(w, "    pass %d: %-13s %s\n", a.Pass, a.Kind, a.Detail)
	}
}
