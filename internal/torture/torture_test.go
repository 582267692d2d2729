package torture

import (
	"fmt"
	"strings"
	"testing"

	"bpwrapper/internal/replacer"
)

// failSeed fails the test with the error and the replay hint, persisting
// the seed for CI artifact upload when TORTURE_SEED_FILE is set.
func failSeed(t *testing.T, seed int64, err error) {
	t.Helper()
	t.Fatalf("%v (%s)", err, ReportSeed(seed))
}

// TestDeterministicOracleAllPaths replays one seeded trace through every
// commit path on a single goroutine and checks the full oracle: order
// preservation, exactly-once application, hit/miss flavour, lag bound,
// and tag integrity.
func TestDeterministicOracleAllPaths(t *testing.T) {
	seed := SeedFromEnv(42)
	tr := NewTrace(seed, 6, 500, 0.15)
	for _, p := range Paths() {
		p := p
		t.Run(string(p), func(t *testing.T) {
			res, err := RunDeterministic(tr, p, 8)
			if err != nil {
				failSeed(t, seed, err)
			}
			if err := CheckOracle(tr, res.Log); err != nil {
				failSeed(t, seed, err)
			}
			if got, want := len(res.Log), tr.Total(); got != want {
				t.Fatalf("seed %d: path %s applied %d of %d accesses (%s)", seed, p, got, want, ReportSeed(seed))
			}
		})
	}
}

// TestDeterministicReplayIsExact runs the same (seed, path) twice and
// demands byte-identical applied logs — the property that makes a
// reported seed an exact replay in deterministic mode.
func TestDeterministicReplayIsExact(t *testing.T) {
	seed := SeedFromEnv(7)
	tr := NewTrace(seed, 4, 300, 0.2)
	for _, p := range Paths() {
		a, err := RunDeterministic(tr, p, 8)
		if err != nil {
			failSeed(t, seed, err)
		}
		b, err := RunDeterministic(tr, p, 8)
		if err != nil {
			failSeed(t, seed, err)
		}
		if len(a.Log) != len(b.Log) {
			t.Fatalf("path %s: replay lengths differ: %d vs %d", p, len(a.Log), len(b.Log))
		}
		for i := range a.Log {
			if a.Log[i] != b.Log[i] {
				t.Fatalf("path %s: replay diverges at log[%d]: %+v vs %+v", p, i, a.Log[i], b.Log[i])
			}
		}
	}
}

// TestDifferentialAcrossPaths checks the differential claim: whatever the
// commit path, the per-session applied sequences are identical (the oracle
// pins each to the trace projection, so checking the oracle on every path
// for the same trace IS the differential comparison; on top, every path
// must hand the policy the same number of hit entries).
func TestDifferentialAcrossPaths(t *testing.T) {
	seed := SeedFromEnv(1234)
	tr := NewTrace(seed, 5, 400, 0.1)
	var results []*Result
	for _, p := range Paths() {
		res, err := RunDeterministic(tr, p, 8)
		if err != nil {
			failSeed(t, seed, err)
		}
		if err := CheckOracle(tr, res.Log); err != nil {
			failSeed(t, seed, err)
		}
		results = append(results, res)
	}
	base := results[0]
	for _, res := range results[1:] {
		if got, want := res.Stats.Committed+res.Stats.Dropped, base.Stats.Committed+base.Stats.Dropped; got != want {
			t.Fatalf("seed %d: path %s committed+dropped %d hit entries, path %s %d",
				seed, res.Path, got, base.Path, want)
		}
	}
}

// TestConcurrentOracleAllPaths runs goroutine-per-session with seeded
// yield injection; the oracle must hold under every interleaving. Long
// mode (TORTURE_LONG=1) multiplies seeds and trace length for nightly CI.
func TestConcurrentOracleAllPaths(t *testing.T) {
	seeds := []int64{SeedFromEnv(3), 11, 29}
	length := 800
	if LongMode() {
		for s := int64(100); s < 130; s++ {
			seeds = append(seeds, s)
		}
		length = 5000
	}
	if testing.Short() {
		seeds = seeds[:1]
		length = 200
	}
	for _, p := range Paths() {
		for _, qs := range []int{4, 16} {
			for _, seed := range seeds {
				tr := NewTrace(seed, 8, length, 0.12)
				res, err := RunConcurrent(tr, p, qs, 0.2)
				if err != nil {
					failSeed(t, seed, err)
				}
				if err := CheckOracle(tr, res.Log); err != nil {
					failSeed(t, seed, err)
				}
			}
		}
	}
}

// mutate returns a copy of log with fn applied — the injected-bug
// generator for the oracle sensitivity checks.
func mutate(log []Record, fn func([]Record) []Record) []Record {
	cp := append([]Record(nil), log...)
	return fn(cp)
}

// TestOracleCatchesInjectedBugs proves the oracle is sensitive to each
// failure class it claims to detect, by injecting the bug into a known-
// good log: an order inversion, a lost access, a duplicated access, and a
// miss applied as a hit. Every report must carry the seed.
func TestOracleCatchesInjectedBugs(t *testing.T) {
	seed := SeedFromEnv(99)
	tr := NewTrace(seed, 3, 200, 0.2)
	res, err := RunDeterministic(tr, PathBatch, 8)
	if err != nil {
		failSeed(t, seed, err)
	}
	good := res.Log
	if err := CheckOracle(tr, good); err != nil {
		failSeed(t, seed, err)
	}

	// Indices of session 0's first two applications, and its last one:
	// dropping a MIDDLE access surfaces as an inversion at the successor,
	// so the lost-access probe removes the final application, which only
	// the end-of-log completeness sweep can notice.
	var i0, i1, last = -1, -1, -1
	for i, rec := range good {
		if rec.Session == 0 {
			if i0 < 0 {
				i0 = i
			} else if i1 < 0 {
				i1 = i
			}
			last = i
		}
	}
	if i1 < 0 || last <= i1 {
		t.Fatal("trace too small for mutation test")
	}

	cases := []struct {
		name string
		log  []Record
		want string
	}{
		{"order-inversion", mutate(good, func(l []Record) []Record {
			l[i0], l[i1] = l[i1], l[i0]
			return l
		}), "order inversion"},
		{"lost-access", mutate(good, func(l []Record) []Record {
			return append(l[:last], l[last+1:]...)
		}), "lost"},
		{"duplicated-access", mutate(good, func(l []Record) []Record {
			return append(l[:i1], append([]Record{l[i0]}, l[i1:]...)...)
		}), "applied twice"},
		{"wrong-flavour", mutate(good, func(l []Record) []Record {
			l[i0].Miss = !l[i0].Miss
			return l
		}), "miss="},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := CheckOracle(tr, c.log)
			if err == nil {
				t.Fatalf("oracle accepted a log with an injected %s bug", c.name)
			}
			if !strings.Contains(err.Error(), "seed") {
				t.Fatalf("failure report omits the replay seed: %v", err)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("failure report %q does not describe the injected bug (%q)", err, c.want)
			}
		})
	}
}

// TestPoolTorture drives the full wrapper × pool × faulty-device stack.
// The tier-1 matrix is small; long mode runs every policy of
// replacer.Names() on every path, with more ops, for nightly CI.
func TestPoolTorture(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-layer torture run skipped in -short")
	}
	seed := SeedFromEnv(17)
	type cse struct {
		name string
		cfg  PoolRunConfig
	}
	cases := []cse{
		{"lru-batch-faults", PoolRunConfig{Seed: seed, Path: PathBatch, Policy: "lru", Faults: true}},
		{"clockpro-fc-faults-bg", PoolRunConfig{Seed: seed + 1, Path: PathFC, Policy: "clockpro", Faults: true, BGWriter: true}},
		{"gclock-direct", PoolRunConfig{Seed: seed + 2, Path: PathDirect, Policy: "gclock"}},
	}
	// One cell for each policy of replacer.Names() that no other tier-1
	// TestPoolTorture* cell names, each with a background writer, so every
	// policy's eviction walk meets flushes pinning its candidates.
	for i, pol := range []string{"fifo", "clock", "arc", "car", "lirs", "mq", "seq"} {
		path := Paths()[i%len(Paths())]
		cases = append(cases, cse{
			pol + "-" + string(path) + "-bg",
			PoolRunConfig{Seed: seed + int64(3+i), Path: path, Policy: pol, BGWriter: true},
		})
	}
	if LongMode() {
		for i, pol := range replacer.Names() {
			for j, path := range Paths() {
				cases = append(cases, cse{
					"long-" + pol + "-" + string(path),
					PoolRunConfig{
						Seed: seed + int64(100+i*10+j), Path: path, Policy: pol,
						Faults: true, BGWriter: j%2 == 0,
						Ops: 2000, Phases: 5, Workers: 8,
					},
				})
			}
		}
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			rep, err := RunPool(c.cfg)
			if err != nil {
				failSeed(t, c.cfg.Seed, err)
			}
			if rep.Writes == 0 || rep.Reads == 0 {
				t.Fatalf("seed %d: degenerate run: %+v", c.cfg.Seed, rep)
			}
		})
	}
}

// TestPoolTortureHitPath is the lock-free hit path's differential oracle.
// In a torture build the same seeded run executes twice, once on the
// optimistic seqlock lookup (the product's) and once with every lookup
// forced through the bucket mutex — the sequential reference, which the
// product keeps only as the probe's fallback. With fault injection off, a
// successful run's report — reads, writes, flushes, invariant passes — is
// fully determined by the seed, so the two reports must be identical: any
// divergence means the optimistic path served an access the locked path
// would not have (or vice versa), i.e. a lookup→pin race. Any other build
// has no reference to switch to and runs the product path against RunPool's
// own oracles. A first batch of runs turns on the seeded yield injector so
// the optimistic-retry labels (BufHitProbe, BufHitPin, BufBucketWrite) get
// adversarial interleaving pressure. Every policy of replacer.Names() has
// a cell: the four named ones, then one each for the rest, cycling through
// the commit paths. Long mode adds one longer cell
// for every policy. CI's hitpath-smoke and the nightly workflow run this
// target by name under -race -tags torture.
func TestPoolTortureHitPath(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-layer torture run skipped in -short")
	}
	seed := SeedFromEnv(91)
	type cse struct {
		name string
		cfg  PoolRunConfig
	}
	cases := []cse{
		{"direct-lru", PoolRunConfig{Seed: seed, Path: PathDirect, Policy: "lru"}},
		{"batch-2q", PoolRunConfig{Seed: seed + 1, Path: PathBatch, Policy: "2q"}},
		{"fc-clockpro-bg", PoolRunConfig{Seed: seed + 2, Path: PathFC, Policy: "clockpro", BGWriter: true}},
		{"batch-lru2", PoolRunConfig{Seed: seed + 3, Path: PathBatch, Policy: "lru2"}},
	}
	named := make(map[string]bool, len(cases))
	for _, c := range cases {
		named[c.cfg.Policy] = true
	}
	for i, pol := range replacer.Names() {
		if named[pol] {
			continue
		}
		path := Paths()[i%len(Paths())]
		cases = append(cases, cse{
			fmt.Sprintf("%s-%s", path, pol),
			PoolRunConfig{Seed: seed + int64(10+i), Path: path, Policy: pol},
		})
	}
	if LongMode() {
		// One cell per policy of replacer.Names(), cycling through the
		// three paths.
		for i, pol := range replacer.Names() {
			j := i % len(Paths())
			cases = append(cases, cse{
				fmt.Sprintf("long-%s-%s", pol, Paths()[j]),
				PoolRunConfig{
					Seed: seed + int64(100+i), Path: Paths()[j], Policy: pol,
					BGWriter: j%2 == 0,
					Ops:      1500, Phases: 4, Workers: 8, Frames: 64,
				},
			})
		}
	}
	// The yield-injected subtest installs the process-wide sched hook, so
	// it must not overlap other runs: it executes synchronously here,
	// before the parallel differential subtests are released.
	t.Run("yield-injected", func(t *testing.T) {
		paths := []Path{PathDirect, PathFC}
		if LongMode() {
			paths = Paths()
		}
		for i, path := range paths {
			cfg := PoolRunConfig{
				Seed: seed + int64(50+i), Path: path, Policy: "lru",
				YieldFrac: 0.2,
			}
			rep, err := RunPool(cfg)
			if err != nil {
				failSeed(t, cfg.Seed, err)
			}
			if rep.Reads == 0 || rep.Writes == 0 {
				t.Fatalf("seed %d: degenerate yield-injected run: %+v", cfg.Seed, rep)
			}
		}
	})
	// The reference lookup is one switch for the whole process, so the
	// locked arms all finish — the group's Run returns when its parallel
	// subtests have — before the optimistic arms start.
	lockedReps := make([]*PoolRunReport, len(cases)) // nil where no locked arm ran
	if !referenceLookup(func() {
		t.Run("locked", func(t *testing.T) {
			for i, c := range cases {
				i, c := i, c
				t.Run(c.name, func(t *testing.T) {
					t.Parallel()
					rep, err := RunPool(c.cfg)
					if err != nil {
						failSeed(t, c.cfg.Seed, fmt.Errorf("locked path: %w", err))
					}
					lockedReps[i] = rep
				})
			}
		})
	}) {
		t.Log("not a torture build: no locked arm; the optimistic path runs against RunPool's oracles alone")
	}
	for i, c := range cases {
		i, c := i, c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			optRep, err := RunPool(c.cfg)
			if err != nil {
				failSeed(t, c.cfg.Seed, fmt.Errorf("optimistic path: %w", err))
			}
			if lockedRep := lockedReps[i]; lockedRep != nil {
				if *lockedRep != *optRep {
					t.Fatalf("seed %d: locked and optimistic hit paths diverge:\n  locked     %+v\n  optimistic %+v",
						c.cfg.Seed, *lockedRep, *optRep)
				}
				t.Logf("seed %d: locked and optimistic arms agree: %+v", c.cfg.Seed, *optRep)
			}
			if optRep.Reads == 0 || optRep.Writes == 0 {
				t.Fatalf("seed %d: degenerate run: %+v", c.cfg.Seed, optRep)
			}
		})
	}
}
