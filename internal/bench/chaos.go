package bench

import (
	"errors"
	"fmt"
	"io"
	"time"

	"bpwrapper/internal/buffer"
	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/storage"
)

// The chaos experiment (E16) drives the graceful-degradation machinery —
// quarantine-pressure health and miss admission control — through two
// scripted fault scenarios on one Fault→Checksum→Retry stack under the
// whole pool and reports the machinery's event counts. Unlike the torture chaos scenarios (which use
// concurrency), E16 is built to be byte-for-byte reproducible: retry
// backoffs are no-op sleeps, fault rates are only 0 or 1, and one
// goroutine drives every operation in a fixed order. The committed
// results/BENCH_chaos.json is therefore a behavioural baseline: a diff
// after a change to internal/buffer or internal/storage is a real
// protocol difference, not scheduling noise.

// ChaosRow is one scenario's event ledger.
type ChaosRow struct {
	Scenario           string `json:"scenario"`
	Misses             int64  `json:"misses"`
	Shed               int64  `json:"shed"`
	QuarantineRefusals int64  `json:"quarantine_refusals"`
	PeakHealth         string `json:"peak_health"`
	FinalHealth        string `json:"final_health"`
	LostPages          int    `json:"lost_pages"`
}

// ChaosReport is the committed E16 baseline shape.
type ChaosReport struct {
	Experiment string     `json:"experiment"`
	Seed       int64      `json:"seed"`
	Rows       []ChaosRow `json:"rows"`
}

const (
	chaosTable = 0x7e
	chaosHot   = 2 // resident pages
	chaosCold  = 6 // miss-provoking pages
)

func chaosPage(b uint64) page.PageID { return page.NewPageID(chaosTable, b) }

// chaosStamp encodes (block, version) as a stamp identity, like the
// torture harness does, so lost updates are detectable from raw bytes.
func chaosStamp(id page.PageID, version int) page.PageID {
	return page.NewPageID(uint32(0x200+version), id.Block())
}

// chaosRun is one scenario's assembled stack plus its shadow model.
type chaosRun struct {
	pool     *buffer.Pool
	mem      *storage.MemDevice
	fault    *storage.FaultDevice
	ids      []page.PageID // hot ids first, then cold
	versions map[page.PageID]int
	ses      *buffer.Session
	row      *ChaosRow
}

// buildChaosRun assembles the Fault→Checksum→Retry stack under the pool.
func buildChaosRun(seed int64, scenario string) *chaosRun {
	r := &chaosRun{
		mem:      storage.NewMemDevice(),
		versions: map[page.PageID]int{},
		row:      &ChaosRow{Scenario: scenario},
	}
	r.fault = storage.NewFaultDevice(r.mem, storage.FaultConfig{Seed: seed})
	r.pool = buffer.New(buffer.Config{
		Frames:        chaosHot + chaosCold/2, // cold misses overflow the pool
		PolicyFactory: func(n int) replacer.Policy { return replacer.NewLRU(n) },
		Device: storage.NewRetryDevice(storage.NewChecksumDevice(r.fault), storage.RetryConfig{
			MaxAttempts: 2,
			Sleep:       func(time.Duration) {}, // no wall time in the ladder
			Jitter:      -1,
			Seed:        seed,
		}),
		QuarantineCap: 2,
	})
	// Seed version 0 below the stack.
	for b := uint64(0); b < chaosHot+chaosCold; b++ {
		id := chaosPage(b)
		r.ids = append(r.ids, id)
		var pg page.Page
		pg.Stamp(chaosStamp(id, 0))
		pg.ID = id
		r.mem.WritePage(&pg)
		r.versions[id] = 0
	}
	r.ses = r.pool.NewSession()
	return r
}

// write dirties id with the next version through the pool.
func (r *chaosRun) write(id page.PageID) error {
	ref, err := r.pool.GetWrite(r.ses, id)
	if err != nil {
		return err
	}
	v := r.versions[id] + 1
	var pg page.Page
	pg.Stamp(chaosStamp(id, v))
	copy(ref.Data(), pg.Data[:])
	ref.MarkDirty()
	ref.Release()
	r.versions[id] = v
	return nil
}

// observe folds the pool's health into the row's peak.
func (r *chaosRun) observe() buffer.HealthState {
	h := r.pool.Stats().Health
	if peak := h.String(); r.row.PeakHealth == "" || h > parseHealth(r.row.PeakHealth) {
		r.row.PeakHealth = peak
	}
	return h
}

func parseHealth(s string) buffer.HealthState {
	switch s {
	case "degraded":
		return buffer.Degraded
	case "read-only":
		return buffer.ReadOnly
	default:
		return buffer.Healthy
	}
}

// finish heals the device, drains the quarantine, closes the pool, and
// scores the zero-lost-dirty oracle against the raw device.
func (r *chaosRun) finish() error {
	r.fault.SetReadFailRate(0)
	r.fault.SetWriteFailRate(0)
	if _, err := r.pool.FlushDirty(); err != nil { // drain parked quarantine writes
		return fmt.Errorf("chaos %s: flush after healing: %w", r.row.Scenario, err)
	}
	st := r.pool.Stats()
	r.row.FinalHealth = st.Health.String()
	if err := r.pool.Close(); err != nil {
		return fmt.Errorf("chaos %s: close after healing: %w", r.row.Scenario, err)
	}
	for id, v := range r.versions {
		var pg page.Page
		if err := r.mem.ReadPage(id, &pg); err != nil {
			return fmt.Errorf("chaos %s: post-close read %v: %w", r.row.Scenario, id, err)
		}
		if !pg.VerifyStamp(chaosStamp(id, v)) {
			r.row.LostPages++
		}
	}
	r.row.Misses = st.Misses
	r.row.Shed = st.Shed
	r.row.QuarantineRefusals = st.QuarantineRefusals
	return nil
}

// chaosScenario runs one scripted campaign and returns its row.
func chaosScenario(seed int64, scenario string) (ChaosRow, error) {
	r := buildChaosRun(seed, scenario)

	// Warm the hot set (resident + dirty).
	for _, id := range r.ids[:chaosHot] {
		if err := r.write(id); err != nil {
			return ChaosRow{}, fmt.Errorf("chaos %s: warmup: %w", scenario, err)
		}
	}

	// Inject the scenario's fault.
	switch scenario {
	case "harddown":
		r.fault.SetReadFailRate(1)
		r.fault.SetWriteFailRate(1)
	case "quarantine":
		r.fault.SetWriteFailRate(1) // reads fine; dirty evictions park
	default:
		return ChaosRow{}, fmt.Errorf("chaos: unknown scenario %q", scenario)
	}

	// Scripted degraded window: a fixed budget of cold misses (errors and
	// sheds are the measured behaviour), the quarantine ladder for the
	// write-fault scenario (dirty cold pages so evictions must write back),
	// and hot reads that must keep serving throughout.
	cold := func(i int) page.PageID { return r.ids[chaosHot+i%chaosCold] }
	for i := 0; i < 24; i++ {
		if scenario == "quarantine" {
			// A loaded page is dirtied, and the next misses evict it into
			// a failing write-back that parks it. A miss may be shed or
			// find every victim refused by a full quarantine (which
			// ErrQuarantineFull wraps); anything else is a fault.
			err := r.write(cold(i))
			if err != nil && !errors.Is(err, buffer.ErrOverloaded) && !errors.Is(err, buffer.ErrNoUnpinnedBuffers) {
				return ChaosRow{}, fmt.Errorf("chaos %s: cold write: %w", scenario, err)
			}
		} else {
			// Every read fails, so a miss returns the device's transient
			// error or is shed; a miss that loads is a fault.
			ref, err := r.pool.Get(r.ses, cold(i))
			if err == nil {
				ref.Release()
				return ChaosRow{}, fmt.Errorf("chaos %s: miss loaded from a dead device", scenario)
			}
			if !errors.Is(err, buffer.ErrOverloaded) && !storage.Retryable(err) {
				return ChaosRow{}, fmt.Errorf("chaos %s: cold miss: %w", scenario, err)
			}
		}
		r.observe()
		for _, id := range r.ids[:chaosHot] {
			ref, err := r.pool.Get(r.ses, id)
			if err != nil {
				return ChaosRow{}, fmt.Errorf("chaos %s: resident read failed mid-fault: %w", scenario, err)
			}
			ref.Release()
		}
	}

	if err := r.finish(); err != nil {
		return ChaosRow{}, err
	}
	return *r.row, nil
}

// ChaosExperiment runs every scenario at o.Seed.
func ChaosExperiment(o Options) (*ChaosReport, error) {
	o = o.withDefaults()
	rep := &ChaosReport{Experiment: "chaos", Seed: o.Seed}
	for _, sc := range []string{"harddown", "quarantine"} {
		row, err := chaosScenario(o.Seed, sc)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// PrintChaos renders the ledger as a table.
func PrintChaos(w io.Writer, rep *ChaosReport) {
	fmt.Fprintln(w, "Chaos scenarios (E16) — graceful-degradation event ledger (scripted, deterministic)")
	fmt.Fprintf(w, "  %-10s %7s %6s %8s %-10s %-10s %5s\n",
		"scenario", "misses", "shed", "quarref", "peak", "final", "lost")
	for _, r := range rep.Rows {
		fmt.Fprintf(w, "  %-10s %7d %6d %8d %-10s %-10s %5d\n",
			r.Scenario, r.Misses, r.Shed, r.QuarantineRefusals, r.PeakHealth, r.FinalHealth, r.LostPages)
	}
}
