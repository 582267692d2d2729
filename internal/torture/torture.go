// Package torture is the deterministic concurrency-correctness harness for
// the BP-Wrapper reproduction. It checks, mechanically, the claims the
// paper makes informally in Section III-A when it argues that deferring
// page accesses into private queues is harmless:
//
//  1. per-session access order is preserved — a session's accesses reach
//     the replacement policy in exactly the order the session made them;
//  2. no access is lost or duplicated — every recorded access is applied
//     to the policy exactly once;
//  3. the policy's view lags each session by at most its queue length
//     (twice that under flat combining, where a published batch and a full
//     recording queue can coexist).
//
// The harness runs the same seeded multi-session trace through every
// commit path — direct locking (no batching), the paper's batched
// TryLock-or-block protocol, and the flat-combining extension — against a *checker policy* that records the
// exact sequence of accesses it is shown, then replays the log against a
// sequential oracle. Every failure message carries the trace seed, and in
// deterministic mode (one driving goroutine, seeded round-robin schedule)
// the interleaving is a pure function of the seed, so failures replay
// exactly. Concurrent mode adds real goroutines plus seeded yield
// injection (internal/sched) for interleaving pressure under -race.
//
// The cross-layer half of the harness (pool.go) drives the full
// wrapper × buffer-pool × faulty-device stack and checks pin-count sanity,
// hash-table/frame consistency, and zero lost dirty pages.
package torture

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"bpwrapper/internal/core"
	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/sched"
)

// ---- Trace ----

// Access is one step of a session's trace: Miss selects the always-lock
// miss protocol, otherwise the batched hit path is exercised. The access's
// identity — (session, sequence number) — is carried in its PageID, so the
// checker policy can attribute every application it observes.
type Access struct {
	Miss bool
}

// Trace is a multi-session access trace. Session s's i-th access targets
// PageID(table: s+1, block: i): every access is globally unique and
// self-describing, which is what lets the oracle verify exactly-once
// application and per-session ordering from the policy-side log alone.
type Trace struct {
	Seed     int64
	Sessions [][]Access
}

// ID returns the PageID encoding access i of session s.
func (t *Trace) ID(s, i int) page.PageID {
	return page.NewPageID(uint32(s+1), uint64(i))
}

// Total returns the number of accesses across all sessions.
func (t *Trace) Total() int {
	n := 0
	for _, ses := range t.Sessions {
		n += len(ses)
	}
	return n
}

// NewTrace generates a seeded multi-session trace. missFrac is the
// fraction of accesses that take the miss path (misses force commits, so
// they shape the batching behaviour the oracle stresses).
func NewTrace(seed int64, sessions, length int, missFrac float64) *Trace {
	r := rand.New(rand.NewSource(seed))
	t := &Trace{Seed: seed, Sessions: make([][]Access, sessions)}
	for s := range t.Sessions {
		acc := make([]Access, length)
		for i := range acc {
			acc[i].Miss = r.Float64() < missFrac
		}
		t.Sessions[s] = acc
	}
	return t
}

// ---- Checker policy ----

// Record is one application the checker policy observed, attributed via
// the PageID encoding.
type Record struct {
	Session uint32
	Seq     uint64
	Miss    bool
}

// checkerPolicy is an "infinite" policy that records every application in
// order. It deliberately has no mutex: the BP-Wrapper protocol promises
// every Hit/Admit happens under the policy lock, so any unserialized call
// is a protocol bug — and the data race on log/calls makes -race fail the
// run, turning the promise into a checked invariant.
type checkerPolicy struct {
	log   []Record
	calls int64 // plain int: the race canary itself
}

var _ replacer.Policy = (*checkerPolicy)(nil)

func (p *checkerPolicy) record(id page.PageID, miss bool) {
	p.calls++
	p.log = append(p.log, Record{Session: id.Table() - 1, Seq: id.Block(), Miss: miss})
}

func (p *checkerPolicy) Name() string { return "torture-checker" }
func (p *checkerPolicy) Cap() int     { return math.MaxInt32 }
func (p *checkerPolicy) Len() int     { return 0 }

func (p *checkerPolicy) Hit(id page.PageID) { p.record(id, false) }

func (p *checkerPolicy) Admit(id page.PageID) (page.PageID, bool) {
	p.record(id, true)
	return page.InvalidPageID, false
}

func (p *checkerPolicy) Evict() (page.PageID, bool)   { return page.InvalidPageID, false }
func (p *checkerPolicy) Remove(id page.PageID)        {}
func (p *checkerPolicy) Contains(id page.PageID) bool { return false }

// ---- Oracle ----

// CheckOracle verifies an applied log against its trace:
//
//   - the projection of the log onto each session is exactly
//     0, 1, …, len-1 — order preserved, nothing lost, nothing duplicated;
//   - each record's hit/miss flavour matches the trace (a miss must reach
//     the policy as an Admit, a hit as a Hit);
//   - nothing outside the trace appears.
//
// Error messages carry the trace seed so any failure names its replay.
func CheckOracle(t *Trace, log []Record) error {
	next := make([]uint64, len(t.Sessions))
	for i, rec := range log {
		s := int(rec.Session)
		if s < 0 || s >= len(t.Sessions) {
			return fmt.Errorf("seed %d: log[%d]: phantom session %d", t.Seed, i, rec.Session)
		}
		want := next[s]
		switch {
		case rec.Seq == want:
			next[s]++
		case rec.Seq < want:
			return fmt.Errorf("seed %d: log[%d]: session %d access %d applied twice (or out of order after %d)",
				t.Seed, i, s, rec.Seq, want-1)
		default:
			return fmt.Errorf("seed %d: log[%d]: session %d order inversion: applied access %d while %d is still pending",
				t.Seed, i, s, rec.Seq, want)
		}
		if rec.Seq >= uint64(len(t.Sessions[s])) {
			return fmt.Errorf("seed %d: log[%d]: session %d access %d outside its trace (len %d)",
				t.Seed, i, s, rec.Seq, len(t.Sessions[s]))
		}
		if got, want := rec.Miss, t.Sessions[s][rec.Seq].Miss; got != want {
			return fmt.Errorf("seed %d: log[%d]: session %d access %d applied as miss=%v, trace says miss=%v",
				t.Seed, i, s, rec.Seq, got, want)
		}
	}
	for s, n := range next {
		if int(n) != len(t.Sessions[s]) {
			return fmt.Errorf("seed %d: session %d: %d of %d accesses lost (never applied)",
				t.Seed, s, len(t.Sessions[s])-int(n), len(t.Sessions[s]))
		}
	}
	return nil
}

// ---- Paths ----

// Path selects a commit protocol for a run.
type Path string

const (
	PathDirect Path = "direct" // Batching off: one lock acquisition per access
	PathBatch  Path = "batch"  // the paper's TryLock-at-threshold protocol
	PathFC     Path = "fc"     // flat-combining commit path
)

// Paths lists every commit path the differential runs compare.
func Paths() []Path { return []Path{PathDirect, PathBatch, PathFC} }

// configFor maps a path to its wrapper configuration. Small queues keep
// the batching machinery busy on short traces.
func configFor(p Path, queueSize int) core.Config {
	cfg := core.Config{QueueSize: queueSize}
	switch p {
	case PathDirect:
	case PathBatch:
		cfg.Batching = true
	case PathFC:
		cfg.Batching = true
		cfg.FlatCombining = true
	default:
		panic("torture: unknown path " + string(p))
	}
	return cfg
}

// lagBound returns invariant (3)'s bound on Session.Pending for a path.
func lagBound(p Path, cfg core.Config) int {
	q := cfg.QueueSize
	if q <= 0 {
		q = core.DefaultQueueSize
	}
	switch p {
	case PathDirect:
		return 0
	case PathFC:
		// A published batch (≤ queue size) plus a full recording queue.
		return 2 * q
	default:
		return q
	}
}

// ---- Runs ----

// Result is one run's observed behaviour.
type Result struct {
	Path  Path
	Log   []Record
	Stats core.Stats
}

// tagGen encodes an access identity into the BufferTag generation, so the
// Validate callback can verify tags travel with their entries intact
// through every queue, slot swap, and combiner handoff.
func tagGen(id page.PageID) uint64 { return uint64(id) ^ 0xbadc0ffee0ddf00d }

// checkTags is that callback: it keeps every entry and reports the first
// whose tag was corrupted in transit into tagErr.
func checkTags(seed int64, tagErr *atomic.Pointer[string]) func([]core.Entry) []core.Entry {
	return func(batch []core.Entry) []core.Entry {
		for _, e := range batch {
			if e.Tag.Page != e.ID || e.Tag.Gen != tagGen(e.ID) {
				msg := fmt.Sprintf("seed %d: entry %v carries tag %+v (corrupted in transit)", seed, e.ID, e.Tag)
				tagErr.CompareAndSwap(nil, &msg)
			}
		}
		return batch
	}
}

// RunDeterministic replays the trace on a single goroutine, interleaving
// sessions in a seeded round-robin. With one goroutine there is no lock
// contention, so TryLock always succeeds, the flat-combining slot is
// always drained by its owner, and the applied log is a pure function of
// (trace, path) — the differential baseline concurrent runs are compared
// against, and the mode in which a reported seed replays exactly.
func RunDeterministic(t *Trace, p Path, queueSize int) (*Result, error) {
	cfg := configFor(p, queueSize)
	pol := &checkerPolicy{}
	var tagErr atomic.Pointer[string]
	cfg.Validate = checkTags(t.Seed, &tagErr)
	w := core.New(pol, cfg)
	bound := lagBound(p, w.Config())

	sessions := make([]*core.Session, len(t.Sessions))
	next := make([]int, len(t.Sessions))
	live := make([]int, 0, len(t.Sessions))
	for i := range sessions {
		sessions[i] = w.NewSession()
		if len(t.Sessions[i]) > 0 {
			live = append(live, i)
		}
	}
	r := rand.New(rand.NewSource(t.Seed ^ 0x7073657373696f6e))
	for len(live) > 0 {
		k := r.Intn(len(live))
		s := live[k]
		i := next[s]
		id := t.ID(s, i)
		tag := page.BufferTag{Page: id, Gen: tagGen(id)}
		if t.Sessions[s][i].Miss {
			sessions[s].Miss(id, tag)
		} else {
			sessions[s].Hit(id, tag)
		}
		if pend := sessions[s].Pending(); pend > bound {
			return nil, fmt.Errorf("seed %d: path %s: session %d lags by %d accesses, bound %d",
				t.Seed, p, s, pend, bound)
		}
		// Seeded occasional flush exercises the idle-backend path.
		if r.Intn(97) == 0 {
			sessions[s].Flush()
		}
		next[s]++
		if next[s] == len(t.Sessions[s]) {
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	for _, s := range sessions {
		s.Flush()
	}
	if err := w.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("seed %d: path %s: %w", t.Seed, p, err)
	}
	if msg := tagErr.Load(); msg != nil {
		return nil, fmt.Errorf("%s", *msg)
	}
	return &Result{Path: p, Log: pol.log, Stats: w.Stats()}, nil
}

// RunConcurrent replays the trace with one goroutine per session under a
// seeded yield injector: every sched.Yield point flips a seeded coin and
// calls runtime.Gosched, perturbing the interleaving reproducibly enough
// that a failing seed usually re-fails. The oracle's invariants must hold
// under EVERY interleaving, so whatever schedule the runtime picks, a
// violation is a real protocol bug.
func RunConcurrent(t *Trace, p Path, queueSize int, yieldFrac float64) (*Result, error) {
	cfg := configFor(p, queueSize)
	pol := &checkerPolicy{}
	var tagErr atomic.Pointer[string]
	cfg.Validate = checkTags(t.Seed, &tagErr)
	w := core.New(pol, cfg)
	bound := lagBound(p, w.Config())

	restore := sched.SetHook(NewYielder(t.Seed, yieldFrac).Hook())
	defer restore()

	var wg sync.WaitGroup
	errs := make([]error, len(t.Sessions))
	for s := range t.Sessions {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ses := w.NewSession()
			r := rand.New(rand.NewSource(t.Seed ^ int64(s)*0x9e3779b9))
			for i, a := range t.Sessions[s] {
				id := t.ID(s, i)
				tag := page.BufferTag{Page: id, Gen: tagGen(id)}
				if a.Miss {
					ses.Miss(id, tag)
				} else {
					ses.Hit(id, tag)
				}
				if pend := ses.Pending(); pend > bound {
					errs[s] = fmt.Errorf("seed %d: path %s: session %d lags by %d accesses, bound %d",
						t.Seed, p, s, pend, bound)
					return
				}
				if r.Intn(211) == 0 {
					ses.Flush()
				}
			}
			ses.Flush()
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := w.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("seed %d: path %s: %w", t.Seed, p, err)
	}
	if msg := tagErr.Load(); msg != nil {
		return nil, fmt.Errorf("%s", *msg)
	}
	return &Result{Path: p, Log: pol.log, Stats: w.Stats()}, nil
}

// ---- Yield injection ----

// Yielder is a seeded perturber for sched hook points: at each injection
// point it advances a splitmix64 stream and yields the processor with the
// configured probability. The stream is shared across goroutines through
// an atomic counter, so the decision sequence is seed-determined even
// though its assignment to goroutines is not.
type Yielder struct {
	seed      uint64
	threshold uint64
	ctr       atomic.Uint64
}

// NewYielder returns a Yielder that yields with probability frac.
func NewYielder(seed int64, frac float64) *Yielder {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return &Yielder{
		seed:      uint64(seed),
		threshold: uint64(frac * float64(math.MaxUint64)),
	}
}

// Hook returns the sched.Hook to install.
func (y *Yielder) Hook() sched.Hook {
	return func(pt sched.Point) {
		x := y.ctr.Add(1) + y.seed + uint64(pt)<<56
		// splitmix64 finalizer: cheap, well-mixed.
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if x < y.threshold {
			runtime.Gosched()
		}
	}
}

// ---- Seed plumbing ----

// SeedFromEnv returns the run seed: TORTURE_SEED if set (the replay knob —
// paste the seed from a failure report), otherwise fallback.
func SeedFromEnv(fallback int64) int64 {
	if v := os.Getenv("TORTURE_SEED"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return fallback
}

// LongMode reports whether the long-running nightly mode is requested
// (TORTURE_LONG=1).
func LongMode() bool { return os.Getenv("TORTURE_LONG") == "1" }

// ReportSeed persists a failing seed to TORTURE_SEED_FILE (when set), so
// CI can upload it as an artifact; it always returns a replay hint string
// for the failure message.
func ReportSeed(seed int64) string {
	if path := os.Getenv("TORTURE_SEED_FILE"); path != "" {
		_ = os.WriteFile(path, []byte(strconv.FormatInt(seed, 10)+"\n"), 0o644)
	}
	return fmt.Sprintf("replay with TORTURE_SEED=%d", seed)
}
