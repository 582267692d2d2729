// Chaos scenarios: targeted fault campaigns against a per-shard
// Retry(Checksum(Fault(mem))) stack that check the graceful-degradation
// contract end to end rather than the statistical churn RunPool applies.
// Each scenario sickens exactly one shard and asserts the blast radius:
// the sick shard degrades as far as its quarantine drives it (misses shed
// fast with buffer.ErrOverloaded exactly when the quarantine is full, and
// fail with a device error before that), resident pages keep serving on
// every shard, dirty data parks losslessly, every other shard stays
// Healthy, and after the fault lifts the zero-lost-dirty-page oracle
// holds against the raw memory device.
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
	// ChaosHardDown: every device operation on the sick shard fails
	// instantly. A miss's dirty victim parks in the quarantine, filling
	// it, and the shard goes ReadOnly.
	ChaosHardDown ChaosScenario = "harddown"

	// ChaosRecovery: a hard-down episode followed by healing; once the
	// quarantine drains the shard must return to Healthy with shedding
	// stopped.
	ChaosRecovery ChaosScenario = "recovery"
)

// ChaosConfig shapes one scenario run.
type ChaosConfig struct {
	Scenario ChaosScenario
	Seed     int64
	Shards   int // hash partitions; 0 means 2 (one sick, the rest healthy)
	Frames   int // pool frames; 0 means 8 per shard
	HotSet   int // resident pages per shard; 0 means a quarter of the shard's frames
}

// ChaosReport summarizes what the scenario observed.
type ChaosReport struct {
	Scenario      ChaosScenario
	SickShard     int
	PeakHealth    buffer.HealthState // worst sick-shard health observed
	Shed          int64              // sick-shard misses refused with ErrOverloaded
	ResidentReads int64              // hot-set reads served during the fault window
	HealthyMisses int64              // cold misses served by healthy shards during the window
	MaxShedMicros int64              // slowest shed, µs — the "fail fast" budget check
}

const (
	// chaosShedBudget bounds one shed miss: a shed touches no device, so
	// anything near this is a miss queued where it should have failed.
	chaosShedBudget = 80 * time.Millisecond
	// chaosMisses is the number of never-resident ids per shard that the
	// scenarios miss on.
	chaosMisses = 8
	// chaosQuarantine is each shard's quarantine capacity: one failed
	// write-back fills the sick shard's.
	chaosQuarantine = 1
)

// buildChaosPool assembles the sharded pool with one fault stack per
// shard and preloads nothing: page content is seeded directly into the
// raw memory device.
func buildChaosPool(cfg ChaosConfig) (*buffer.Pool, *storage.MemDevice, []*storage.FaultDevice) {
	mem := storage.NewMemDevice()
	faults := make([]*storage.FaultDevice, cfg.Shards)
	p := buffer.New(buffer.Config{
		Frames:        cfg.Frames,
		Shards:        cfg.Shards,
		PolicyFactory: func(n int) replacer.Policy { return replacer.NewLRU(n) },
		Device:        mem,
		QuarantineCap: chaosQuarantine * cfg.Shards,
		WrapShardDevice: func(shard int, base storage.Device) storage.Device {
			faults[shard] = storage.NewFaultDevice(base, storage.FaultConfig{Seed: cfg.Seed + int64(shard)})
			return storage.NewRetryDevice(storage.NewChecksumDevice(faults[shard]), storage.RetryConfig{
				MaxAttempts: 2,
				BaseBackoff: time.Millisecond,
				Seed:        cfg.Seed,
			})
		},
	})
	return p, mem, faults
}

// chaosIDs partitions page ids by owning shard: ids[s] lists pages routed
// to shard s, generated until every shard has n.
func chaosIDs(p *buffer.Pool, shards, n int) [][]page.PageID {
	ids := make([][]page.PageID, shards)
	for b := uint64(0); ; b++ {
		id := page.NewPageID(tortureTable, b)
		s := p.ShardOf(id)
		if len(ids[s]) < n {
			ids[s] = append(ids[s], id)
		}
		full := true
		for _, l := range ids {
			if len(l) < n {
				full = false
				break
			}
		}
		if full {
			return ids
		}
	}
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
	if cfg.Shards <= 0 {
		cfg.Shards = 2
	}
	if cfg.Frames <= 0 {
		cfg.Frames = 8 * cfg.Shards
	}
	framesPerShard := cfg.Frames / cfg.Shards
	if cfg.HotSet <= 0 {
		cfg.HotSet = framesPerShard / 4
	}
	if cfg.HotSet >= framesPerShard {
		return nil, fmt.Errorf("chaos seed %d: hot set %d must leave frames to fill in a %d-frame shard",
			cfg.Seed, cfg.HotSet, framesPerShard)
	}

	pool, mem, faults := buildChaosPool(cfg)
	rep := &ChaosReport{Scenario: cfg.Scenario, SickShard: 0}
	fail := func(format string, args ...any) error {
		err := fmt.Errorf("chaos %s seed %d: "+format, append([]any{cfg.Scenario, cfg.Seed}, args...)...)
		if dump := pool.FlightDump(); dump != "" {
			err = fmt.Errorf("%w\n%s", err, dump)
		}
		return err
	}

	// Seed content directly into the raw device (below every wrapper),
	// then load each shard's hot set and dirty it to version 1. Per shard
	// the ids are the hot set, the pages that fill the rest of the shard,
	// and chaosMisses never-resident ids to miss on. The shadow map
	// tracks the last version written per page for the end oracle.
	ids := chaosIDs(pool, cfg.Shards, framesPerShard+chaosMisses)
	versions := map[page.PageID]int{}
	for _, l := range ids {
		for _, id := range l {
			var pg page.Page
			pg.Stamp(stampID(int(id.Block()), 0))
			pg.ID = id
			if err := mem.WritePage(&pg); err != nil {
				return nil, fail("device preload: %v", err)
			}
			versions[id] = 0
		}
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
	for s := 0; s < cfg.Shards; s++ {
		for _, id := range ids[s][:cfg.HotSet] {
			if err := writeVersion(id, 1); err != nil {
				return nil, fail("hot-set load shard %d: %v", s, err)
			}
		}
	}
	// Fill the sick shard with dirty pages, then touch its hot set again
	// so that the fill pages are the LRU victims: every miss on the sick
	// shard must now write a dirty victim back.
	for _, id := range ids[0][cfg.HotSet:framesPerShard] {
		if err := writeVersion(id, 1); err != nil {
			return nil, fail("fill load: %v", err)
		}
	}
	for _, id := range ids[0][:cfg.HotSet] {
		ref, err := pool.Get(ses, id)
		if err != nil {
			return nil, fail("hot-set touch: %v", err)
		}
		ref.Release()
	}

	miss := func(s, i int) page.PageID { return ids[s][framesPerShard+i%chaosMisses] }
	// sickMiss issues one miss on the sick shard and holds it to the
	// ladder: it sheds with ErrOverloaded, fast, exactly when the
	// quarantine was full before it, and otherwise fails with the
	// device's error.
	sickMiss := func(i int) error {
		st := pool.Stats().PerShard[0]
		if st.Health > rep.PeakHealth {
			rep.PeakHealth = st.Health
		}
		full := st.Quarantined >= chaosQuarantine
		start := time.Now()
		ref, err := pool.Get(ses, miss(0, i))
		lat := time.Since(start)
		switch {
		case err == nil:
			ref.Release()
			return fail("sick-shard miss on %v succeeded against a dead device", miss(0, i))
		case full && !errors.Is(err, buffer.ErrOverloaded):
			return fail("sick-shard miss with the quarantine full returned %v, want ErrOverloaded", err)
		case !full && errors.Is(err, buffer.ErrOverloaded):
			return fail("sick-shard miss shed at quarantine %d/%d (health %v): %v", st.Quarantined, chaosQuarantine, st.Health, err)
		case !full && !storage.Retryable(err):
			return fail("sick-shard miss returned %v, want the device's transient error", err)
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

	// Phase 1 — park: kill the sick shard's device and miss until a dirty
	// victim's failed write-back fills its quarantine.
	faults[0].SetReadFailRate(1)
	faults[0].SetWriteFailRate(1)
	for i := 0; pool.Stats().PerShard[0].Quarantined < chaosQuarantine; i++ {
		if i >= chaosMisses {
			return nil, fail("quarantine never filled: %d/%d after %d misses", pool.Stats().PerShard[0].Quarantined, chaosQuarantine, i)
		}
		if err := sickMiss(i); err != nil {
			return nil, err
		}
	}

	// Phase 2 — degraded window: the contract assertions.
	if h := pool.Stats().PerShard[0].Health; h != buffer.ReadOnly {
		return nil, fail("sick shard health=%v with its quarantine full, want ReadOnly", h)
	}
	// (a) Sick-shard misses shed fast with ErrOverloaded.
	shedBefore := pool.Stats().Shed
	for i := 0; i < chaosMisses; i++ {
		if err := sickMiss(i); err != nil {
			return nil, err
		}
	}
	rep.Shed = pool.Stats().Shed - shedBefore
	// (b) Resident pages keep serving on every shard, sick included.
	for s := 0; s < cfg.Shards; s++ {
		for _, id := range ids[s][:cfg.HotSet] {
			ref, err := pool.Get(ses, id)
			if err != nil {
				return nil, fail("resident Get(%v) on shard %d failed during the fault: %v", id, s, err)
			}
			var got page.Page
			copy(got.Data[:], ref.Data())
			ref.Release()
			if !got.VerifyStamp(stampID(int(id.Block()), versions[id])) {
				return nil, fail("resident page %v served wrong content during the fault", id)
			}
			rep.ResidentReads++
		}
	}
	// (c) Resident writes on the sick shard still work (data is safe in
	// memory; the quarantine protocol keeps eviction lossless).
	for _, id := range ids[0][:cfg.HotSet] {
		if err := writeVersion(id, versions[id]+1); err != nil {
			return nil, fail("resident write on sick shard: %v", err)
		}
	}
	// (d) Healthy shards are untouched: misses flow, health stays Healthy.
	for s := 1; s < cfg.Shards; s++ {
		for i := 0; i < chaosMisses; i++ {
			ref, err := pool.Get(ses, miss(s, i))
			if err != nil {
				return nil, fail("healthy shard %d miss failed during the fault: %v", s, err)
			}
			ref.Release()
			rep.HealthyMisses++
		}
		if h := pool.Stats().PerShard[s].Health; h != buffer.Healthy {
			return nil, fail("healthy shard %d degraded to %v — blast radius leaked", s, h)
		}
	}

	// Phase 3 — heal. Recovery drains the quarantine with a flush and
	// requires the shard to walk back to Healthy and stop shedding.
	faults[0].SetReadFailRate(0)
	faults[0].SetWriteFailRate(0)
	if cfg.Scenario == ChaosRecovery {
		if _, err := pool.FlushDirty(); err != nil {
			return nil, fail("flush after healing: %v", err)
		}
		if h := pool.Stats().PerShard[0].Health; h != buffer.Healthy {
			return nil, fail("sick shard health=%v after its quarantine drained, want Healthy", h)
		}
		shedAt := pool.Stats().Shed
		for i := 0; i < chaosMisses; i++ {
			ref, err := pool.Get(ses, miss(0, i))
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
