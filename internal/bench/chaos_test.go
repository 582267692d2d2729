package bench

import (
	"bytes"
	"reflect"
	"testing"
)

// TestChaosDeterministic: the whole point of E16 is a committed baseline,
// so two runs at the same seed must be byte-identical.
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
}

// TestChaosScenarioShapes checks each scenario exercised the machinery it
// is scripted to exercise, and that no scenario lost a dirty page.
func TestChaosScenarioShapes(t *testing.T) {
	rep, err := ChaosExperiment(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ChaosRow{}
	for _, r := range rep.Rows {
		byName[r.Scenario] = r
		if r.LostPages != 0 {
			t.Errorf("%s: lost %d dirty pages through fault+recovery", r.Scenario, r.LostPages)
		}
		if r.FinalHealth != "healthy" {
			t.Errorf("%s: pool did not return to Healthy after healing: %+v", r.Scenario, r)
		}
	}
	// Failed reads park nothing, so a dead device with resident dirty
	// pages never fills the quarantine and the pool sheds nothing; failed
	// write-backs of dirty victims fill it and the pool sheds.
	if r := byName["harddown"]; r.Shed != 0 || r.PeakHealth != "healthy" {
		t.Errorf("harddown: shed without quarantine pressure: %+v", r)
	}
	if r := byName["quarantine"]; r.Shed == 0 || r.PeakHealth != "read-only" {
		t.Errorf("quarantine: write-fault pressure never took the pool read-only: %+v", r)
	}
}
