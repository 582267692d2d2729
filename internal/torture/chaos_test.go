package torture

import (
	"testing"

	"bpwrapper/internal/buffer"
)

// runChaos is the shared driver: run the scenario, fail with the full
// report (which carries the seed and flight dump) on any oracle
// violation.
func runChaos(t *testing.T, sc ChaosScenario) *ChaosReport {
	t.Helper()
	rep, err := RunChaos(ChaosConfig{Scenario: sc, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestChaosHardDown: a fully dead device must fill the quarantine, shed
// misses fast, and leave resident pages serving.
func TestChaosHardDown(t *testing.T) {
	rep := runChaos(t, ChaosHardDown)
	if rep.Shed == 0 {
		t.Fatalf("no miss was shed while the device was down: %+v", rep)
	}
	if rep.PeakHealth != buffer.ReadOnly {
		t.Fatalf("peak health %v, want ReadOnly with the quarantine full: %+v", rep.PeakHealth, rep)
	}
	if rep.ResidentReads == 0 {
		t.Fatalf("degraded-window service assertions never ran: %+v", rep)
	}
}

// TestChaosRecovery: after the fault lifts and the quarantine drains, the
// pool must return to Healthy with shedding stopped (asserted inside
// RunChaos).
func TestChaosRecovery(t *testing.T) {
	rep := runChaos(t, ChaosRecovery)
	if rep.Shed == 0 {
		t.Fatalf("recovery scenario never saw the outage: %+v", rep)
	}
}

// TestChaosSeeds sweeps a few seeds through the sharpest scenario so the
// assertions do not hinge on one lucky interleaving.
func TestChaosSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed chaos sweep in -short mode")
	}
	for seed := int64(2); seed < 6; seed++ {
		if _, err := RunChaos(ChaosConfig{Scenario: ChaosHardDown, Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
}
