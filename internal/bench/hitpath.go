package bench

import (
	"fmt"
	"io"

	"bpwrapper/internal/buffer"
	"bpwrapper/internal/core"
	"bpwrapper/internal/page"
	"bpwrapper/internal/storage"
)

// ---------------------------------------------------------------------------
// Experiment E17 — the lock-free hit path: seqlock bucket lookups plus a
// single pin CAS on the frame's packed state word (DESIGN.md §12).
//
// The sweep drives a seeded, single-goroutine, 100%-resident read workload
// through the pool. Every access is a hit, so the hit-path anatomy
// counters are exact and byte-identical on every run: every hit must be
// served fast (Fast == Hits) with zero bucket/frame lock acquisitions.
// Each row is the difference of two Stats snapshots around the stream.
// Committed as results/BENCH_hitpath.json and drift-checked by CI — the
// "zero locks on a resident read" guard; what the resident Get costs on
// the clock is benchmark/'s buffer.get_hit_ns. The mutex lookup the probe
// falls back to is the reference the torture-tagged differentials run it
// against (internal/torture), not an arm here.

// Hitpath-experiment tuning: a working set at half occupancy, every page
// resident.
const (
	HitpathFrames   = 512
	HitpathPages    = HitpathFrames / 2
	hitpathAccesses = 1 << 16
)

// HitpathCounterRow is the deterministic counter sweep's point. All fields
// are exact post-Flush totals.
type HitpathCounterRow struct {
	Path           string `json:"path"` // "optimistic": the one hit path
	Accesses       int64  `json:"accesses"`
	Hits           int64  `json:"hits"`
	Fast           int64  `json:"fast"`      // hits served with zero mutex acquisitions
	Retries        int64  `json:"retries"`   // torn optimistic probes retried
	Fallbacks      int64  `json:"fallbacks"` // lookups that fell back to the bucket mutex
	BucketLockAcqs int64  `json:"bucket_lock_acqs"`
	FrameLockAcqs  int64  `json:"frame_lock_acqs"`
}

// HitpathReport is the E17 result, the committed baseline.
type HitpathReport struct {
	Experiment  string              `json:"experiment"`
	Mode        string              `json:"mode"`
	Seed        int64               `json:"seed"`
	Frames      int                 `json:"frames"`
	Pages       int                 `json:"pages"`
	CounterRows []HitpathCounterRow `json:"counter_rows"`
}

// HitpathExperiment runs E17's counter sweep; only the seed is consulted.
func HitpathExperiment(o Options) (*HitpathReport, error) {
	rep := &HitpathReport{
		Experiment: "hitpath",
		Mode:       modeSim,
		Seed:       o.Seed,
		Frames:     HitpathFrames,
		Pages:      HitpathPages,
	}
	row, err := hitpathCounterPoint(o.Seed)
	if err != nil {
		return nil, fmt.Errorf("hitpath counters: %w", err)
	}
	rep.CounterRows = append(rep.CounterRows, row)
	return rep, nil
}

// hitpathCounterPoint drives one fully resident pool (null device, direct
// commits: the sweep measures the lookup+pin protocol, not the commit
// protocol) single-threaded over a seeded access stream and reads the
// anatomy off the difference of two Stats snapshots around it. One
// goroutine, every page resident: the counters are exact and reproducible.
func hitpathCounterPoint(seed int64) (HitpathCounterRow, error) {
	pool, err := newPool("lru", buffer.Config{
		Frames:  HitpathFrames,
		Wrapper: core.Config{},
		Device:  storage.NewNullDevice(),
	})
	if err != nil {
		return HitpathCounterRow{}, err
	}
	ids := make([]page.PageID, HitpathPages)
	for i := range ids {
		ids[i] = page.PageID(i + 1)
	}
	if err := pool.Prewarm(ids); err != nil {
		return HitpathCounterRow{}, err
	}
	before := pool.Stats()
	s := pool.NewSession()
	r := uint64(seed)*0x9e3779b97f4a7c15 + 1
	for i := 0; i < hitpathAccesses; i++ {
		r = splitmix64(&r)
		ref, err := pool.Get(s, ids[r%uint64(len(ids))])
		if err != nil {
			return HitpathCounterRow{}, err
		}
		ref.Release()
	}
	s.Flush()
	st := pool.Stats()
	hits := st.Hits - before.Hits
	return HitpathCounterRow{
		Path:           "optimistic",
		Accesses:       hits + st.Misses - before.Misses,
		Hits:           hits,
		Fast:           st.HitpathFast - before.HitpathFast,
		Retries:        st.HitpathRetries - before.HitpathRetries,
		Fallbacks:      st.HitpathFallbacks - before.HitpathFallbacks,
		BucketLockAcqs: st.BucketLockAcqs - before.BucketLockAcqs,
		FrameLockAcqs:  st.FrameLockAcqs - before.FrameLockAcqs,
	}, nil
}

// splitmix64 advances the state and returns the next value of the
// deterministic access stream.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// PrintHitpath renders the sweep.
func PrintHitpath(w io.Writer, rep *HitpathReport) {
	fmt.Fprintln(w, "Lock-free hit path (E17) — seqlock lookup + pin CAS, zero locks on a resident read")
	fmt.Fprintf(w, "\nHit-path anatomy (%d resident pages in %d frames, %d seeded accesses, 1 goroutine)\n",
		rep.Pages, rep.Frames, hitpathAccesses)
	fmt.Fprintf(w, "  %-11s %9s %9s %9s %8s %8s %10s %10s\n",
		"path", "accesses", "hits", "fast", "retries", "fallbk", "bucketlk", "framelk")
	for _, r := range rep.CounterRows {
		fmt.Fprintf(w, "  %-11s %9d %9d %9d %8d %8d %10d %10d\n",
			r.Path, r.Accesses, r.Hits, r.Fast, r.Retries, r.Fallbacks,
			r.BucketLockAcqs, r.FrameLockAcqs)
	}
}
