// Chaos scenarios: targeted fault campaigns against a
// Retry(Checksum(Fault(mem))) stack under the whole pool that check the
// graceful-degradation contract end to end rather than the statistical
// churn RunPool applies. Each scenario sickens the device and asserts what
// the pool still does: it degrades as far as its quarantine drives it
// (misses shed fast with buffer.ErrOverloaded exactly when the quarantine
// is full, and fail with a device error before that), resident pages keep
// serving, dirty data parks losslessly, and after the fault lifts the
// zero-lost-dirty-page oracle holds against the raw memory device.
package torture

import (
	"errors"
	"fmt"
	"time"

	"bpwrapper/internal/buffer"
	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/storage"
)

// ChaosScenario names one fault campaign.
type ChaosScenario string

const (
	// ChaosHardDown: every device operation fails instantly. A miss's
	// dirty victim parks in the quarantine, filling it, and the pool goes
	// ReadOnly.
	ChaosHardDown ChaosScenario = "harddown"

	// ChaosRecovery: a hard-down episode followed by healing; once the
	// quarantine drains the pool must return to Healthy with shedding
	// stopped.
	ChaosRecovery ChaosScenario = "recovery"
)

// ChaosConfig shapes one scenario run.
type ChaosConfig struct {
	Scenario ChaosScenario
	Seed     int64
}

// ChaosReport summarizes what the scenario observed.
type ChaosReport struct {
	Scenario      ChaosScenario
	PeakHealth    buffer.HealthState // worst health observed
	Shed          int64              // misses refused with ErrOverloaded
	ResidentReads int64              // hot-set reads served during the fault window
	MaxShedMicros int64              // slowest shed, µs — the "fail fast" budget check
}

const (
	// chaosShedBudget bounds one shed miss: a shed touches no device, so
	// anything near this is a miss queued where it should have failed.
	chaosShedBudget = 80 * time.Millisecond
	// chaosFrames and chaosHot size the pool and its resident hot set.
	chaosFrames = 8
	chaosHot    = chaosFrames / 4
	// chaosMisses is the number of never-resident ids the scenarios miss
	// on.
	chaosMisses = 8
	// chaosQuarantine is the quarantine capacity: one failed write-back
	// fills it.
	chaosQuarantine = 1
)

// buildChaosPool assembles the pool over one fault stack and preloads
// nothing: page content is seeded directly into the raw memory device.
func buildChaosPool(cfg ChaosConfig) (*buffer.Pool, *storage.MemDevice, *storage.FaultDevice) {
	mem := storage.NewMemDevice()
	fault := storage.NewFaultDevice(mem, storage.FaultConfig{Seed: cfg.Seed})
	p := buffer.New(buffer.Config{
		Frames:        chaosFrames,
		PolicyFactory: func(n int) replacer.Policy { return replacer.NewLRU(n) },
		Device: storage.NewRetryDevice(storage.NewChecksumDevice(fault), storage.RetryConfig{
			MaxAttempts: 2,
			BaseBackoff: time.Millisecond,
			Seed:        cfg.Seed,
		}),
		QuarantineCap: chaosQuarantine,
	})
	return p, mem, fault
}

// RunChaos executes one scenario. Every oracle failure carries the seed
// and the pool's flight-recorder dump.
func RunChaos(cfg ChaosConfig) (*ChaosReport, error) {
	if cfg.Scenario == "" {
		cfg.Scenario = ChaosHardDown
	}
	if cfg.Scenario != ChaosHardDown && cfg.Scenario != ChaosRecovery {
		return nil, fmt.Errorf("chaos: unknown scenario %q", cfg.Scenario)
	}

	pool, mem, fault := buildChaosPool(cfg)
	rep := &ChaosReport{Scenario: cfg.Scenario}
	fail := func(format string, args ...any) error {
		err := fmt.Errorf("chaos %s seed %d: "+format, append([]any{cfg.Scenario, cfg.Seed}, args...)...)
		if dump := pool.FlightDump(); dump != "" {
			err = fmt.Errorf("%w\n%s", err, dump)
		}
		return err
	}

	// Seed content directly into the raw device (below every wrapper),
	// then load the hot set and dirty it to version 1. The ids are the hot
	// set, the pages that fill the rest of the pool, and chaosMisses
	// never-resident ids to miss on. The shadow map tracks the last
	// version written per page for the end oracle.
	ids := make([]page.PageID, chaosFrames+chaosMisses)
	versions := map[page.PageID]int{}
	for b := range ids {
		id := page.NewPageID(tortureTable, uint64(b))
		ids[b] = id
		var pg page.Page
		pg.Stamp(stampID(b, 0))
		pg.ID = id
		if err := mem.WritePage(&pg); err != nil {
			return nil, fail("device preload: %v", err)
		}
		versions[id] = 0
	}
	ses := pool.NewSession()
	writeVersion := func(id page.PageID, v int) error {
		ref, err := pool.GetWrite(ses, id)
		if err != nil {
			return err
		}
		var pg page.Page
		pg.Stamp(stampID(int(id.Block()), v))
		copy(ref.Data(), pg.Data[:])
		ref.MarkDirty()
		ref.Release()
		versions[id] = v
		return nil
	}
	for _, id := range ids[:chaosHot] {
		if err := writeVersion(id, 1); err != nil {
			return nil, fail("hot-set load: %v", err)
		}
	}
	// Fill the pool with dirty pages, then touch the hot set again so that
	// the fill pages are the LRU victims: every miss must now write a dirty
	// victim back.
	for _, id := range ids[chaosHot:chaosFrames] {
		if err := writeVersion(id, 1); err != nil {
			return nil, fail("fill load: %v", err)
		}
	}
	for _, id := range ids[:chaosHot] {
		ref, err := pool.Get(ses, id)
		if err != nil {
			return nil, fail("hot-set touch: %v", err)
		}
		ref.Release()
	}

	miss := func(i int) page.PageID { return ids[chaosFrames+i%chaosMisses] }
	// sickMiss issues one miss on the sick device and holds it to the
	// ladder: it sheds with ErrOverloaded, fast, exactly when the
	// quarantine was full before it, and otherwise fails with the
	// device's error.
	sickMiss := func(i int) error {
		st := pool.Stats()
		if st.Health > rep.PeakHealth {
			rep.PeakHealth = st.Health
		}
		full := st.Quarantined >= chaosQuarantine
		start := time.Now()
		ref, err := pool.Get(ses, miss(i))
		lat := time.Since(start)
		switch {
		case err == nil:
			ref.Release()
			return fail("miss on %v succeeded against a dead device", miss(i))
		case full && !errors.Is(err, buffer.ErrOverloaded):
			return fail("miss with the quarantine full returned %v, want ErrOverloaded", err)
		case !full && errors.Is(err, buffer.ErrOverloaded):
			return fail("miss shed at quarantine %d/%d (health %v): %v", st.Quarantined, chaosQuarantine, st.Health, err)
		case !full && !storage.Retryable(err):
			return fail("miss returned %v, want the device's transient error", err)
		case full:
			if us := lat.Microseconds(); us > rep.MaxShedMicros {
				rep.MaxShedMicros = us
			}
			if lat > chaosShedBudget {
				return fail("shed miss took %v, past the %v budget — sheds must not queue", lat, chaosShedBudget)
			}
		}
		return nil
	}

	// Phase 1 — park: kill the device and miss until a dirty victim's
	// failed write-back fills the quarantine.
	fault.SetReadFailRate(1)
	fault.SetWriteFailRate(1)
	for i := 0; pool.Stats().Quarantined < chaosQuarantine; i++ {
		if i >= chaosMisses {
			return nil, fail("quarantine never filled: %d/%d after %d misses", pool.Stats().Quarantined, chaosQuarantine, i)
		}
		if err := sickMiss(i); err != nil {
			return nil, err
		}
	}

	// Phase 2 — degraded window: the contract assertions.
	if h := pool.Stats().Health; h != buffer.ReadOnly {
		return nil, fail("health=%v with the quarantine full, want ReadOnly", h)
	}
	// (a) Misses shed fast with ErrOverloaded.
	shedBefore := pool.Stats().Shed
	for i := 0; i < chaosMisses; i++ {
		if err := sickMiss(i); err != nil {
			return nil, err
		}
	}
	rep.Shed = pool.Stats().Shed - shedBefore
	// (b) Resident pages keep serving.
	for _, id := range ids[:chaosHot] {
		ref, err := pool.Get(ses, id)
		if err != nil {
			return nil, fail("resident Get(%v) failed during the fault: %v", id, err)
		}
		var got page.Page
		copy(got.Data[:], ref.Data())
		ref.Release()
		if !got.VerifyStamp(stampID(int(id.Block()), versions[id])) {
			return nil, fail("resident page %v served wrong content during the fault", id)
		}
		rep.ResidentReads++
	}
	// (c) Resident writes still work (data is safe in memory; the
	// quarantine protocol keeps eviction lossless).
	for _, id := range ids[:chaosHot] {
		if err := writeVersion(id, versions[id]+1); err != nil {
			return nil, fail("resident write during the fault: %v", err)
		}
	}

	// Phase 3 — heal. Recovery drains the quarantine with a flush and
	// requires the pool to walk back to Healthy and stop shedding.
	fault.SetReadFailRate(0)
	fault.SetWriteFailRate(0)
	if cfg.Scenario == ChaosRecovery {
		if _, err := pool.FlushDirty(); err != nil {
			return nil, fail("flush after healing: %v", err)
		}
		if h := pool.Stats().Health; h != buffer.Healthy {
			return nil, fail("health=%v after the quarantine drained, want Healthy", h)
		}
		shedAt := pool.Stats().Shed
		for i := 0; i < chaosMisses; i++ {
			ref, err := pool.Get(ses, miss(i))
			if err != nil {
				return nil, fail("post-recovery miss failed: %v", err)
			}
			ref.Release()
		}
		if d := pool.Stats().Shed - shedAt; d != 0 {
			return nil, fail("%d misses shed after full recovery", d)
		}
	}

	// Phase 4 — the zero-lost-dirty-page oracle: Close drains everything
	// (frames and quarantine) and the raw device must hold the last
	// version written to every page, fault campaign notwithstanding.
	if err := pool.Close(); err != nil {
		return nil, fail("Close after healing: %v", err)
	}
	for id, v := range versions {
		var pg page.Page
		if err := mem.ReadPage(id, &pg); err != nil {
			return nil, fail("post-close read of %v: %v", id, err)
		}
		if !pg.VerifyStamp(stampID(int(id.Block()), v)) {
			return nil, fail("page %v: device does not hold last written version %d — dirty page lost", id, v)
		}
	}
	return rep, nil
}
