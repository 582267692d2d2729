// Package bench implements the BP-Wrapper paper's evaluation (Section IV):
// the five tested system configurations of Table I and one experiment
// function per table and figure, each returning typed rows and able to
// print itself in the paper's shape.
//
// Absolute numbers will differ from the paper's 2007-era Itanium SMP and
// Xeon hosts; the experiments are designed so the *shapes* reproduce: who
// wins, by what rough factor, and where the crossovers fall.
package bench

import (
	"fmt"

	"bpwrapper/internal/buffer"
	"bpwrapper/internal/core"
	"bpwrapper/internal/replacer"
)

// System is one tested configuration from Table I of the paper.
type System struct {
	// Name is the paper's system name (pgClock, pg2Q, pgBat, pgPre,
	// pgBatPre).
	Name string

	// Policy is the replacement algorithm name in package replacer.
	Policy string

	// Batching and Prefetching select the BP-Wrapper techniques.
	Batching    bool
	Prefetching bool

	// FlatCombining selects the flat-combining commit path, the
	// beyond-the-paper extension measured by the combine experiment. Not
	// part of Table I.
	FlatCombining bool
}

// The five systems of Table I.
var (
	// SystemClock is stock PostgreSQL 8.2's configuration: the clock
	// algorithm, lock-free on hits — the scalability optimum the paper
	// measures everything against.
	SystemClock = System{Name: "pgClock", Policy: "clock"}

	// System2Q replaces clock with 2Q and no contention reduction: the
	// paper's baseline for an advanced algorithm naively integrated.
	System2Q = System{Name: "pg2Q", Policy: "2q"}

	// SystemBat is pg2Q plus the batching technique.
	SystemBat = System{Name: "pgBat", Policy: "2q", Batching: true}

	// SystemPre is pg2Q plus the prefetching technique.
	SystemPre = System{Name: "pgPre", Policy: "2q", Prefetching: true}

	// SystemBatPre enables both techniques: the full BP-Wrapper.
	SystemBatPre = System{Name: "pgBatPre", Policy: "2q", Batching: true, Prefetching: true}

	// SystemFC is pgBat with the flat-combining commit path — the
	// beyond-the-paper configuration of the combine experiment. It is not
	// in Systems(): Table I has exactly the paper's five rows.
	SystemFC = System{Name: "pgBatFC", Policy: "2q", Batching: true, FlatCombining: true}
)

// Systems returns the five configurations in the paper's order.
func Systems() []System {
	return []System{SystemClock, System2Q, SystemBat, SystemPre, SystemBatPre}
}

// WrapperConfig materialises the system's core.Config with the paper's
// queue tuning (size 64, threshold 32) unless overridden by the caller.
func (s System) WrapperConfig(queueSize, batchThreshold int) core.Config {
	return core.Config{
		Batching:       s.Batching,
		Prefetching:    s.Prefetching,
		FlatCombining:  s.FlatCombining,
		QueueSize:      queueSize,
		BatchThreshold: batchThreshold,
	}
}

// newPool builds a real pool running the named policy. The deterministic
// real-pool sweeps (E17, E18, E20) build their pools here.
func newPool(policy string, cfg buffer.Config) (*buffer.Pool, error) {
	f, ok := replacer.Factories()[policy]
	if !ok {
		return nil, fmt.Errorf("bench: unknown policy %q", policy)
	}
	cfg.PolicyFactory = f
	return buffer.New(cfg), nil
}
