package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestTunerExperiment runs E19 end to end and checks the acceptance
// criteria directly: phase A's controller must recover at least half of
// the SEQ hit-ratio loss that sharding inflicts (E14's measured gap), and
// phase B must hot-swap away from the misconfigured policy and beat its
// steady-state ratio decisively. The experiment is deterministic, so these
// are exact-replay assertions, not statistical ones.
func TestTunerExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("full tuner replay skipped in -short")
	}
	rep, err := TunerExperiment(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	r := rep.Reshard
	if r.BaselineStart >= r.Baseline1 {
		t.Fatalf("trace does not show the fragmentation loss: 1-shard %.4f vs %d-shard %.4f",
			r.Baseline1, r.StartShards, r.BaselineStart)
	}
	if r.FinalShards >= r.StartShards {
		t.Fatalf("controller never resharded down: final %d shards (actions %v)", r.FinalShards, r.Actions)
	}
	if r.RecoveredFrac < 0.5 {
		t.Fatalf("tuned pool recovered %.0f%% of the loss, want >= 50%% (tuned %.4f, baselines %.4f/%.4f)",
			100*r.RecoveredFrac, r.TunedRatio, r.BaselineStart, r.Baseline1)
	}
	downs := 0
	for _, a := range r.Actions {
		if a.Kind == "reshard-down" {
			downs++
		}
	}
	if downs == 0 {
		t.Fatalf("no reshard-down action recorded: %v", r.Actions)
	}

	s := rep.Swap
	if s.FinalPolicy == s.Configured {
		t.Fatalf("controller kept the misconfigured policy %q (actions %v)", s.Configured, s.Actions)
	}
	if s.TunedRatio <= s.StaticRatio+0.1 {
		t.Fatalf("swap did not pay: static %.4f vs tuned %.4f", s.StaticRatio, s.TunedRatio)
	}

	// Output shapes render without error and carry the headline figures.
	var buf bytes.Buffer
	PrintTuner(&buf, rep)
	if !strings.Contains(buf.String(), "Phase A") || !strings.Contains(buf.String(), "Phase B") {
		t.Fatalf("print output incomplete:\n%s", buf.String())
	}
	buf.Reset()
	if err := WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"experiment": "tuner"`) {
		t.Fatal("json missing experiment tag")
	}
}
