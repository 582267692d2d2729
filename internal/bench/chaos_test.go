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
		if !r.Recovered {
			t.Errorf("%s: shard did not return to Healthy after healing: %+v", r.Scenario, r)
		}
	}
	for _, sc := range []string{"brownout", "harddown", "recovery"} {
		if byName[sc].BreakerTrips == 0 {
			t.Errorf("%s: breaker never tripped: %+v", sc, byName[sc])
		}
	}
	if byName["harddown"].Shed == 0 {
		t.Errorf("harddown: no miss shed while shard was down: %+v", byName["harddown"])
	}
	if byName["quarantine"].BreakerTrips != 0 {
		t.Errorf("quarantine: breaker should be parked, tripped anyway: %+v", byName["quarantine"])
	}
	if byName["quarantine"].PeakHealth == "healthy" {
		t.Errorf("quarantine: write-fault pressure never degraded the shard: %+v", byName["quarantine"])
	}
}
