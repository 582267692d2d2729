package bench

import (
	"fmt"
	"io"

	"bpwrapper/internal/torture"
)

// The chaos experiment (E16) is the ledger of the torture package's chaos
// campaign: scripted device-fault scenarios under the whole pool, each
// held to the graceful-degradation oracles, reporting the quarantine-
// pressure health ladder's and miss admission control's event counts. The
// campaign is byte-for-byte reproducible — retry back-offs are no-op
// sleeps, fault rates are only 0 or 1, and one goroutine drives every
// operation in a fixed order — so the committed results/BENCH_chaos.json
// is a behavioural baseline: a diff after a change to internal/buffer or
// internal/storage is a real protocol difference, not scheduling noise.

// ChaosReport is the committed E16 baseline shape.
type ChaosReport struct {
	Experiment string             `json:"experiment"`
	Seed       int64              `json:"seed"`
	Rows       []torture.ChaosRow `json:"rows"`
}

// ChaosExperiment runs the campaign at o.Seed.
func ChaosExperiment(o Options) (*ChaosReport, error) {
	o = o.withDefaults()
	rows, err := torture.RunChaos(o.Seed)
	if err != nil {
		return nil, err
	}
	return &ChaosReport{Experiment: "chaos", Seed: o.Seed, Rows: rows}, nil
}

// PrintChaos renders the ledger as a table.
func PrintChaos(w io.Writer, rep *ChaosReport) {
	fmt.Fprintln(w, "Chaos scenarios (E16) — graceful-degradation event ledger (scripted, deterministic)")
	width := len("scenario")
	for _, r := range rep.Rows {
		width = max(width, len(r.Scenario))
	}
	fmt.Fprintf(w, "  %-*s %7s %6s %8s %-10s %-10s %5s\n",
		width, "scenario", "misses", "shed", "quarref", "peak", "final", "lost")
	for _, r := range rep.Rows {
		fmt.Fprintf(w, "  %-*s %7d %6d %8d %-10s %-10s %5d\n",
			width, r.Scenario, r.Misses, r.Shed, r.QuarantineRefusals, r.PeakHealth, r.FinalHealth, r.LostPages)
	}
}
