// The chaos campaign: scripted fault scenarios against a
// Retry(Checksum(Fault(mem))) stack under the whole pool that check the
// graceful-degradation contract end to end rather than the statistical
// churn RunPool applies. One goroutine drives every operation in a fixed
// order, retry back-offs are no-op sleeps and fault rates are only 0 or 1,
// so a row's counts are a function of its script alone: E16 (bpbench -exp
// chaos, results/BENCH_chaos.json) renders them as its ledger.
//
// Each scenario sickens the device and steps through a fixed budget of
// misses, asserting at every step that the pool degrades exactly as far as
// its quarantine drives it: a miss sheds fast with buffer.ErrOverloaded
// exactly when the quarantine was full before it, health is ReadOnly
// exactly while it is full, the other misses fail with a read-failing
// device's retryable error (or load, when only writes fail), and resident
// pages keep serving the last version written. Then the device heals, a
// flush drains the quarantine, the pool must be Healthy and load misses
// without shedding, and after Close the raw device must hold the last
// version of every page: zero lost dirty pages.
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

// chaosScenario is one row of the campaign: what fails, whether the pool
// is full of dirty pages when it does, and how many parked pages fill the
// quarantine.
type chaosScenario struct {
	name       string
	failReads  bool // reads fail as well as writes; otherwise each miss dirties its page
	dirtyFill  bool // the frames beside the hot set hold dirty pages before the fault
	quarantine int
}

// dirtyVictims reports whether the scenario's misses evict dirty pages,
// whose failed write-backs park in the quarantine.
func (sc chaosScenario) dirtyVictims() bool { return sc.dirtyFill || !sc.failReads }

var chaosScenarios = []chaosScenario{
	// A dead device under a pool with free frames: the misses' victims are
	// clean, so nothing parks and nothing sheds.
	{name: "harddown", failReads: true, quarantine: 2},
	// Writes fail: each loaded miss is dirtied, the next misses evict it
	// into a failing write-back, and it parks until the pool goes read-only.
	{name: "quarantine", quarantine: 2},
	// A dead device under a pool full of dirty pages: the first miss parks
	// its victim, and from then on misses shed. Its failed read frees the
	// frame the next miss takes, so a larger quarantine never fills.
	{name: "harddown-dirty", failReads: true, dirtyFill: true, quarantine: 1},
}

// ChaosRow is one scenario's event ledger: the pool's counts read after
// the healing flush, and the health seen during the fault.
type ChaosRow struct {
	Scenario           string `json:"scenario"`
	Misses             int64  `json:"misses"`
	Shed               int64  `json:"shed"`
	QuarantineRefusals int64  `json:"quarantine_refusals"`
	PeakHealth         string `json:"peak_health"`
	FinalHealth        string `json:"final_health"`
	LostPages          int    `json:"lost_pages"`
}

const (
	// chaosShedBudget bounds one shed miss: a shed touches no device, so
	// anything near this is a miss queued where it should have failed.
	chaosShedBudget = 80 * time.Millisecond
	// chaosFrames and chaosHot size the pool and its resident hot set.
	chaosFrames = 5
	chaosHot    = 2
	// chaosMisses is the number of never-resident ids the fault window
	// misses on in turn, and the budget within which a scenario with
	// dirty victims must fill the quarantine.
	chaosMisses = 6
	// chaosSteps is the length of the fault window, in misses.
	chaosSteps = 24
)

// RunChaos runs every scenario at seed, in table order. An oracle failure
// names the scenario and seed and carries the pool's flight-recorder dump.
func RunChaos(seed int64) ([]ChaosRow, error) {
	rows := make([]ChaosRow, 0, len(chaosScenarios))
	for _, sc := range chaosScenarios {
		row, err := runChaosScenario(sc, seed)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runChaosScenario(sc chaosScenario, seed int64) (row ChaosRow, err error) {
	mem := storage.NewMemDevice()
	fault := storage.NewFaultDevice(mem, storage.FaultConfig{Seed: seed})
	pool := buffer.New(buffer.Config{
		Frames:        chaosFrames,
		PolicyFactory: func(n int) replacer.Policy { return replacer.NewLRU(n) },
		Device: storage.NewRetryDevice(storage.NewChecksumDevice(fault), storage.RetryConfig{
			MaxAttempts: 2,
			Sleep:       func(time.Duration) {}, // no wall time in the ladder
			Seed:        seed,
		}),
		QuarantineCap: sc.quarantine,
	})
	defer func() {
		if err != nil {
			err = fmt.Errorf("chaos %s seed %d: %w", sc.name, seed, err)
			if dump := pool.FlightDump(); dump != "" {
				err = fmt.Errorf("%w\n%s", err, dump)
			}
		}
	}()
	row.Scenario = sc.name

	// Seed version 0 of every page directly into the raw device, below
	// every wrapper. The ids are the hot set, the dirty fill (if any) and
	// chaosMisses never-resident ids; versions is the shadow model the
	// content checks and the end oracle read.
	n := chaosHot + chaosMisses
	if sc.dirtyFill {
		n += chaosFrames - chaosHot
	}
	ids := make([]page.PageID, n)
	versions := map[page.PageID]int{}
	for b := range ids {
		ids[b] = poolPage(b)
		var pg page.Page
		pg.Stamp(stampID(b, 0))
		pg.ID = ids[b]
		if err := mem.WritePage(&pg); err != nil {
			return row, fmt.Errorf("device preload: %w", err)
		}
		versions[ids[b]] = 0
	}
	hot, misses := ids[:chaosHot], ids[n-chaosMisses:]
	miss := func(i int) page.PageID { return misses[i%chaosMisses] }

	ses := pool.NewSession()
	// write dirties id with its next version through the pool.
	write := func(id page.PageID) error {
		ref, err := pool.GetWrite(ses, id)
		if err != nil {
			return err
		}
		v := versions[id] + 1
		var pg page.Page
		pg.Stamp(stampID(int(id.Block()), v))
		copy(ref.Data(), pg.Data[:])
		ref.MarkDirty()
		ref.Release()
		versions[id] = v
		return nil
	}
	// read requires id to serve its last version written.
	read := func(id page.PageID) error {
		ref, err := pool.Get(ses, id)
		if err != nil {
			return err
		}
		var got page.Page
		copy(got.Data[:], ref.Data())
		ref.Release()
		if !got.VerifyStamp(stampID(int(id.Block()), versions[id])) {
			return fmt.Errorf("page %v served other than its version %d", id, versions[id])
		}
		return nil
	}
	readHot := func() error {
		for _, id := range hot {
			if err := read(id); err != nil {
				return err
			}
		}
		return nil
	}

	// Warm the hot set and the fill to version 1, then touch the hot set,
	// so that the fill pages are the LRU victims.
	for _, id := range ids[:n-chaosMisses] {
		if err := write(id); err != nil {
			return row, fmt.Errorf("warm-up: %w", err)
		}
	}
	if err := readHot(); err != nil {
		return row, fmt.Errorf("warm-up: %w", err)
	}

	fault.SetWriteFailRate(1)
	if sc.failReads {
		fault.SetReadFailRate(1)
	}
	peak := buffer.Healthy
	for i := 0; i < chaosSteps; i++ {
		st := pool.Stats()
		full := st.Quarantined >= sc.quarantine
		switch {
		case (st.Health == buffer.ReadOnly) != full:
			return row, fmt.Errorf("health=%v at quarantine %d/%d, want ReadOnly exactly while it is full", st.Health, st.Quarantined, sc.quarantine)
		case !sc.dirtyVictims() && st.Quarantined > 0:
			return row, fmt.Errorf("%d pages parked, but every victim was clean", st.Quarantined)
		case sc.dirtyVictims() && !full && i >= chaosMisses:
			return row, fmt.Errorf("quarantine never filled: %d/%d after %d misses", st.Quarantined, sc.quarantine, i)
		}
		peak = max(peak, st.Health)

		id := miss(i)
		start := time.Now()
		if sc.failReads {
			var ref *buffer.PageRef
			if ref, err = pool.Get(ses, id); err == nil {
				ref.Release()
			}
		} else {
			err = write(id)
		}
		lat := time.Since(start)
		switch missed := pool.Stats().Misses > st.Misses; {
		case !missed && err != nil:
			return row, fmt.Errorf("resident %v failed during the fault: %w", id, err)
		case !missed:
		case full && !errors.Is(err, buffer.ErrOverloaded):
			return row, fmt.Errorf("miss with the quarantine full returned %v, want ErrOverloaded", err)
		case full && lat > chaosShedBudget:
			return row, fmt.Errorf("shed miss took %v, past the %v budget: sheds must not queue", lat, chaosShedBudget)
		case full:
		case errors.Is(err, buffer.ErrOverloaded):
			return row, fmt.Errorf("miss shed at quarantine %d/%d: %w", st.Quarantined, sc.quarantine, err)
		case sc.failReads && err == nil:
			return row, fmt.Errorf("miss on %v loaded from a dead device", id)
		case sc.failReads && !storage.Retryable(err):
			return row, fmt.Errorf("miss returned %w, want the device's transient error", err)
		case !sc.failReads && err != nil:
			return row, fmt.Errorf("miss on a readable device failed: %w", err)
		}
		if err := readHot(); err != nil {
			return row, fmt.Errorf("resident read during the fault: %w", err)
		}
	}
	// Resident writes still work: the data is safe in memory, and the
	// quarantine keeps eviction lossless.
	for _, id := range hot {
		if err := write(id); err != nil {
			return row, fmt.Errorf("resident write during the fault: %w", err)
		}
	}

	// Heal, and drain the quarantine with a flush: the row's counts are
	// read here. The pool must be Healthy again and load misses unshed.
	fault.SetReadFailRate(0)
	fault.SetWriteFailRate(0)
	if _, err := pool.FlushDirty(); err != nil {
		return row, fmt.Errorf("flush after healing: %w", err)
	}
	st := pool.Stats()
	row.Misses, row.Shed, row.QuarantineRefusals = st.Misses, st.Shed, st.QuarantineRefusals
	row.PeakHealth, row.FinalHealth = peak.String(), st.Health.String()
	if st.Health != buffer.Healthy {
		return row, fmt.Errorf("health=%v after the quarantine drained, want Healthy", st.Health)
	}
	for i := 0; i < chaosMisses; i++ {
		if err := read(miss(i)); err != nil {
			return row, fmt.Errorf("post-recovery miss: %w", err)
		}
	}
	if d := pool.Stats().Shed - st.Shed; d != 0 {
		return row, fmt.Errorf("%d misses shed after full recovery", d)
	}

	// The zero-lost-dirty-page oracle: Close drains the frames and the
	// quarantine, and the raw device must hold the last version written to
	// every page, fault campaign notwithstanding.
	if err := pool.Close(); err != nil {
		return row, fmt.Errorf("close after healing: %w", err)
	}
	for b, id := range ids {
		var pg page.Page
		if err := mem.ReadPage(id, &pg); err != nil {
			return row, fmt.Errorf("post-close read of %v: %w", id, err)
		}
		if !pg.VerifyStamp(stampID(b, versions[id])) {
			row.LostPages++
		}
	}
	if row.LostPages != 0 {
		return row, fmt.Errorf("%d dirty pages lost: the device lacks their last version", row.LostPages)
	}
	return row, nil
}
