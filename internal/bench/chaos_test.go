package bench

import (
	"bytes"
	"reflect"
	"testing"

	"bpwrapper/internal/torture"
)

// TestChaosDeterministic: the whole point of E16 is a committed baseline,
// so two runs at the same seed must be byte-identical. The seed reaches
// only the fault device's and the retry jitter's generators, whose draws
// decide nothing at fault rates of 0 or 1 and under no-op sleeps, so
// another seed gives the same rows: a sweep over seeds reruns one script.
func TestChaosDeterministic(t *testing.T) {
	a, err := ChaosExperiment(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ChaosExperiment(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed runs differ:\n%+v\n%+v", a, b)
	}
	var ba, bb bytes.Buffer
	if err := WriteJSON(&ba, a); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&bb, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatalf("same-seed JSON differs")
	}
	c, err := ChaosExperiment(Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Rows, c.Rows) {
		t.Fatalf("seed 2 changed the rows:\n%+v\n%+v", a.Rows, c.Rows)
	}
}

// TestChaosScenarioShapes checks each scenario exercised the machinery it
// is scripted to exercise, and that no scenario lost a dirty page.
func TestChaosScenarioShapes(t *testing.T) {
	rep, err := ChaosExperiment(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]torture.ChaosRow{}
	for _, r := range rep.Rows {
		byName[r.Scenario] = r
		if r.LostPages != 0 {
			t.Errorf("%s: lost %d dirty pages through fault+recovery", r.Scenario, r.LostPages)
		}
		if r.FinalHealth != "healthy" {
			t.Errorf("%s: pool did not return to Healthy after healing: %+v", r.Scenario, r)
		}
	}
	// Failed reads park nothing, so a dead device whose misses find free
	// frames never fills the quarantine and the pool sheds nothing; failed
	// write-backs of dirty victims fill it and the pool sheds, whether the
	// device still reads or not.
	if r := byName["harddown"]; r.Shed != 0 || r.PeakHealth != "healthy" {
		t.Errorf("harddown: shed without quarantine pressure: %+v", r)
	}
	for _, name := range []string{"quarantine", "harddown-dirty"} {
		if r := byName[name]; r.Shed == 0 || r.PeakHealth != "read-only" {
			t.Errorf("%s: dirty victims' failed write-backs never took the pool read-only: %+v", name, r)
		}
	}
	if len(rep.Rows) != 3 {
		t.Errorf("%d rows, want harddown, quarantine and harddown-dirty", len(rep.Rows))
	}
}
