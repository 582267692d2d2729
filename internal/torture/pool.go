package torture

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"bpwrapper/internal/buffer"
	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/sched"
	"bpwrapper/internal/storage"
)

// PoolRunConfig shapes a cross-layer torture run: the full
// wrapper × buffer-pool × faulty-device stack under concurrent load.
type PoolRunConfig struct {
	Seed     int64
	Workers  int
	Frames   int
	Pages    int    // working-set size; should exceed Frames to force eviction churn
	Ops      int    // operations per worker per phase
	Phases   int    // bursts separated by quiescent invariant checks
	Policy   string // replacer algorithm name; "" means lru
	Path     Path   // commit path for the pool's wrapper
	Faults   bool   // inject transient read/write failures and corruption
	BGWriter bool   // run a background writer during the bursts

	// YieldFrac, when positive, installs the seeded yield injector for the
	// duration of the run, perturbing every sched point — including the
	// optimistic-retry labels (BufHitProbe, BufHitPin, BufBucketWrite).
	// The hook is process-wide: runs with YieldFrac set must not execute
	// concurrently with other hook users.
	YieldFrac float64

	// RecorderSize sizes the pool's flight recorder, whose dump is
	// appended to every oracle failure. Zero means 512 events; negative
	// disables recording.
	RecorderSize int
}

// PoolRunReport summarizes a completed run.
type PoolRunReport struct {
	Reads, Writes  int64 // successful worker operations
	ReadErrors     int64 // tolerated (retry-exhausted) Get failures
	WriteErrors    int64
	Shed           int64 // misses refused by admission control (ErrOverloaded)
	Flushes        int64
	Invariantified int // quiescent CheckInvariants passes
}

// tortureTable is the table number the pool run's pages live in; distinct
// from the per-session tables the trace runs use.
const tortureTable = 0x7f

// poolPage returns the real identity of block b.
func poolPage(b int) page.PageID { return page.NewPageID(tortureTable, uint64(b)) }

// stampID encodes (block, version) as the stamp identity: version 0 is the
// pre-loaded content, version v the v-th rewrite. The version rides in the
// table bits, which the content checks decode back.
func stampID(b, version int) page.PageID {
	return page.NewPageID(uint32(0x100+version), uint64(b))
}

// checkStatsConsistency verifies the pool's snapshot at a quiescent point:
// every session has flushed, so AccessStats must agree with Stats. Under
// load this is only a one-sided bound (see buffer.Stats); at quiescence any
// imbalance is a folding bug.
func checkStatsConsistency(pool *buffer.Pool) error {
	st := pool.Stats()
	a := pool.AccessStats()
	if a.Hits != st.Hits || a.Misses != st.Misses {
		return fmt.Errorf("AccessStats %d/%d disagrees with Stats %d/%d at quiescence",
			a.Hits, a.Misses, st.Hits, st.Misses)
	}
	return nil
}

// statsGauges are the integer fields of buffer.Stats that describe the
// moment; every other integer field is a cumulative total.
var statsGauges = map[string]bool{"Frames": true, "Free": true, "Dirty": true, "Quarantined": true,
	"Health": true, "QuarantineCap": true}

// decreasedTotal names the first cumulative total of cur below prev's, or
// returns "" when none is.
func decreasedTotal(prev, cur reflect.Value, path string) string {
	for i := 0; i < cur.NumField(); i++ {
		field, c, p := cur.Type().Field(i).Name, cur.Field(i), prev.Field(i)
		switch {
		case statsGauges[field]:
		case c.Kind() == reflect.Struct:
			if d := decreasedTotal(p, c, path+field+"."); d != "" {
				return d
			}
		case c.CanInt() && c.Int() < p.Int(), c.CanUint() && c.Uint() < p.Uint():
			return fmt.Sprintf("%s%s: %v -> %v", path, field, p, c)
		}
	}
	return ""
}

// RunPool executes the cross-layer torture run and verifies:
//
//   - content integrity: every page read is a complete stamp of a version
//     consistent with the per-page version counter (no torn or stale-beyond
//     -window reads through the pool);
//   - pin sanity: after each phase and before Close no frame stays pinned;
//   - structural consistency: Pool.CheckInvariants (frame/hash-table/free-
//     list/quarantine agreement plus the policy's own invariants) passes at
//     every quiescent point, and the statistics balance exactly
//     (checkStatsConsistency);
//   - counters only grow: no cumulative total of Stats is below the
//     previous phase's (decreasedTotal);
//   - zero lost dirty pages: after Close, the device holds the LAST version
//     written to every page, fault injection notwithstanding.
//
// Every failure message carries the seed.
func RunPool(cfg PoolRunConfig) (*PoolRunReport, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Frames <= 0 {
		cfg.Frames = 32
	}
	if cfg.Pages <= 0 {
		cfg.Pages = 4 * cfg.Frames
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 400
	}
	if cfg.Phases <= 0 {
		cfg.Phases = 3
	}
	if cfg.Policy == "" {
		cfg.Policy = "lru"
	}
	if cfg.RecorderSize == 0 {
		cfg.RecorderSize = 512
	} else if cfg.RecorderSize < 0 {
		cfg.RecorderSize = 0
	}

	mem := storage.NewMemDevice()
	fault := storage.NewFaultDevice(mem, storage.FaultConfig{Seed: cfg.Seed})
	var dev storage.Device = storage.NewRetryDevice(
		storage.NewChecksumDevice(fault),
		storage.RetryConfig{MaxAttempts: 6},
	)

	// Pre-load every page at version 0 — through the checksum layer, so
	// corrupted first reads are detected and retried rather than trusted.
	for b := 0; b < cfg.Pages; b++ {
		var pg page.Page
		pg.Stamp(stampID(b, 0))
		pg.ID = poolPage(b)
		if err := dev.WritePage(&pg); err != nil {
			return nil, fmt.Errorf("seed %d: preload: %v", cfg.Seed, err)
		}
	}

	factory, ok := replacer.Factories()[cfg.Policy]
	if !ok {
		return nil, fmt.Errorf("seed %d: unknown policy %q", cfg.Seed, cfg.Policy)
	}
	pool := buffer.New(buffer.Config{
		Frames:        cfg.Frames,
		PolicyFactory: factory,
		Wrapper:       configFor(cfg.Path, 16),
		Device:        dev,
		RecorderSize:  cfg.RecorderSize,
	})

	if cfg.YieldFrac > 0 {
		restore := sched.SetHook(NewYielder(cfg.Seed, cfg.YieldFrac).Hook())
		defer restore()
	}

	// oracleFail attaches the pool's flight-recorder history to a failed
	// oracle: the ring holds the last transitions (quarantine parks and
	// flushes, health changes) leading up to the violation, which is
	// usually exactly what a seed-replay debugging session needs first.
	oracleFail := func(err error) error {
		if err == nil {
			return nil
		}
		if dump := pool.FlightDump(); dump != "" {
			return fmt.Errorf("%w\n%s", err, dump)
		}
		return err
	}

	if cfg.Faults {
		fault.SetReadFailRate(0.02)
		fault.SetWriteFailRate(0.05)
		fault.SetCorruptRate(0.01)
	}

	// Shadow model: versions[b] is the last fully written version of block
	// b. Writes to a block are owned by one worker (b mod Workers), so the
	// counter is exact; the version is bumped only after the write ref is
	// released, so a concurrent reader sees a complete stamp of a version
	// in [loadBefore, loadAfter+1].
	versions := make([]atomic.Int64, cfg.Pages)
	var rep PoolRunReport

	var bg *buffer.BackgroundWriter
	startBG := func() {
		if cfg.BGWriter {
			bg = pool.StartBackgroundWriter(buffer.BackgroundWriterConfig{Interval: time.Millisecond})
		}
	}
	stopBG := func() {
		if bg != nil {
			bg.Stop()
			bg = nil
		}
	}

	worker := func(w, phase int, errOut *error) {
		s := pool.NewSession()
		r := rand.New(rand.NewSource(cfg.Seed ^ int64(w)<<20 ^ int64(phase)<<40))
		for op := 0; op < cfg.Ops; op++ {
			b := r.Intn(cfg.Pages)
			switch k := r.Intn(10); {
			case k < 6: // read anywhere, verify content
				v1 := versions[b].Load()
				ref, err := pool.Get(s, poolPage(b))
				if err != nil {
					if cfg.Faults && errors.Is(err, buffer.ErrOverloaded) {
						// A read-only pool shed the miss: the load-shedding
						// contract working as designed under fault pressure.
						atomic.AddInt64(&rep.Shed, 1)
						continue
					}
					if cfg.Faults && storage.Retryable(err) {
						atomic.AddInt64(&rep.ReadErrors, 1)
						continue
					}
					*errOut = fmt.Errorf("seed %d: worker %d phase %d: Get(%d): %v", cfg.Seed, w, phase, b, err)
					return
				}
				var got page.Page
				copy(got.Data[:], ref.Data())
				ref.Release()
				v2 := versions[b].Load()
				okv := false
				for v := v1; v <= v2+1; v++ {
					if got.VerifyStamp(stampID(b, int(v))) {
						okv = true
						break
					}
				}
				if !okv {
					*errOut = fmt.Errorf("seed %d: worker %d phase %d: page %d content matches no version in [%d, %d] — torn or lost write",
						cfg.Seed, w, phase, b, v1, v2+1)
					return
				}
				atomic.AddInt64(&rep.Reads, 1)
			case k < 9: // write, but only to owned blocks
				b = b - b%cfg.Workers + w
				if b >= cfg.Pages {
					continue
				}
				next := int(versions[b].Load()) + 1
				ref, err := pool.GetWrite(s, poolPage(b))
				if err != nil {
					if cfg.Faults && errors.Is(err, buffer.ErrOverloaded) {
						atomic.AddInt64(&rep.Shed, 1)
						continue
					}
					if cfg.Faults && storage.Retryable(err) {
						atomic.AddInt64(&rep.WriteErrors, 1)
						continue
					}
					*errOut = fmt.Errorf("seed %d: worker %d phase %d: GetWrite(%d): %v", cfg.Seed, w, phase, b, err)
					return
				}
				var pg page.Page
				pg.Stamp(stampID(b, next))
				copy(ref.Data(), pg.Data[:])
				ref.MarkDirty()
				ref.Release()
				versions[b].Store(int64(next))
				atomic.AddInt64(&rep.Writes, 1)
			default: // flush (write-back churn racing evictions)
				if _, err := pool.FlushDirty(); err != nil && !(cfg.Faults && storage.Retryable(err)) {
					*errOut = fmt.Errorf("seed %d: worker %d phase %d: FlushDirty: %v", cfg.Seed, w, phase, err)
					return
				}
				atomic.AddInt64(&rep.Flushes, 1)
			}
		}
		s.Flush()
	}

	var last buffer.Stats // the previous phase's snapshot
	for phase := 0; phase < cfg.Phases; phase++ {
		startBG()
		errs := make([]error, cfg.Workers)
		var wg sync.WaitGroup
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				worker(w, phase, &errs[w])
			}(w)
		}
		wg.Wait()
		stopBG()
		for _, err := range errs {
			if err != nil {
				return nil, oracleFail(err)
			}
		}
		// Quiescent point: no worker, no loader, no background writer.
		if n := pool.PinnedFrames(); n != 0 {
			return nil, oracleFail(fmt.Errorf("seed %d: phase %d: %d frames still pinned at quiescence", cfg.Seed, phase, n))
		}
		if err := pool.CheckInvariants(); err != nil {
			return nil, oracleFail(fmt.Errorf("seed %d: phase %d: %w", cfg.Seed, phase, err))
		}
		if err := checkStatsConsistency(pool); err != nil {
			return nil, oracleFail(fmt.Errorf("seed %d: phase %d: %w", cfg.Seed, phase, err))
		}
		st := pool.Stats()
		if d := decreasedTotal(reflect.ValueOf(last), reflect.ValueOf(st), ""); d != "" {
			return nil, oracleFail(fmt.Errorf("seed %d: phase %d: a Stats total went backwards: %s", cfg.Seed, phase, d))
		}
		last = st
		rep.Invariantified++
	}

	// Heal the device so shutdown write-back deterministically succeeds,
	// then verify the zero-lost-dirty-pages guarantee end to end.
	fault.SetReadFailRate(0)
	fault.SetWriteFailRate(0)
	fault.SetCorruptRate(0)
	if err := pool.Close(); err != nil {
		return nil, fmt.Errorf("seed %d: Close: %v", cfg.Seed, err)
	}
	if n := pool.PinnedFrames(); n != 0 {
		return nil, oracleFail(fmt.Errorf("seed %d: %d frames pinned after Close", cfg.Seed, n))
	}
	for b := 0; b < cfg.Pages; b++ {
		var pg page.Page
		if err := mem.ReadPage(poolPage(b), &pg); err != nil {
			return nil, oracleFail(fmt.Errorf("seed %d: post-close read of page %d: %v", cfg.Seed, b, err))
		}
		v := int(versions[b].Load())
		if !pg.VerifyStamp(stampID(b, v)) {
			return nil, oracleFail(fmt.Errorf("seed %d: page %d: device does not hold last written version %d — dirty page lost",
				cfg.Seed, b, v))
		}
	}
	return &rep, nil
}
