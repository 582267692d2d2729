package torture

import (
	"testing"

	"bpwrapper/internal/buffer"
)

// TestChaosCampaign runs every scenario of the campaign through its
// oracles (asserted inside RunChaos); the rows' shapes are E16's, checked
// in internal/bench.
func TestChaosCampaign(t *testing.T) {
	rows, err := RunChaos(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(chaosScenarios) {
		t.Fatalf("%d rows for %d scenarios", len(rows), len(chaosScenarios))
	}
}

// runChaosNamed runs the one campaign scenario called name at seed 1,
// failing with the full error (scenario, seed and flight dump) on any
// oracle violation.
func runChaosNamed(t *testing.T, name string) ChaosRow {
	t.Helper()
	for _, sc := range chaosScenarios {
		if sc.name == name {
			row, err := runChaosScenario(sc, 1)
			if err != nil {
				t.Fatal(err)
			}
			return row
		}
	}
	t.Fatalf("no chaos scenario %q", name)
	return ChaosRow{}
}

// TestChaosHardDown: a dead device under a pool full of dirty pages must
// fill the quarantine, take the pool read-only and shed misses fast, while
// resident pages keep serving (asserted inside the run).
func TestChaosHardDown(t *testing.T) {
	row := runChaosNamed(t, "harddown-dirty")
	if row.Shed == 0 {
		t.Fatalf("no miss was shed while the device was down: %+v", row)
	}
	if row.PeakHealth != buffer.ReadOnly.String() {
		t.Fatalf("peak health %s, want %s with the quarantine full: %+v", row.PeakHealth, buffer.ReadOnly, row)
	}
}

// TestChaosRecovery: after the fault lifts and the quarantine drains, the
// pool must return to Healthy with shedding stopped (asserted inside the
// run) and every dirty page on the device.
func TestChaosRecovery(t *testing.T) {
	row := runChaosNamed(t, "quarantine")
	if row.Shed == 0 {
		t.Fatalf("recovery scenario never saw the outage: %+v", row)
	}
	if row.FinalHealth != buffer.Healthy.String() || row.LostPages != 0 {
		t.Fatalf("pool did not recover losslessly: %+v", row)
	}
}
