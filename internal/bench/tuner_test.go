package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestTunerExperiment runs E19 end to end and checks its acceptance
// criteria directly: the controller must hot-swap away from the
// misconfigured policy and beat its steady-state ratio decisively. The
// experiment is deterministic, so these are exact-replay assertions, not
// statistical ones.
func TestTunerExperiment(t *testing.T) {
	rep, err := TunerExperiment(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
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
	if !strings.Contains(buf.String(), "Phase B") {
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
