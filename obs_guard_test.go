// The observability overhead guard: the flight recorder, lock profiling,
// and commit-shape distributions must stay off the per-access critical
// path. TestObsOverheadGuard enforces the ≤3% budget on the system fast
// path (pool.Get) when explicitly asked to — timing assertions are
// opt-in so ordinary `go test ./...` stays machine-independent.
package bpwrapper_test

import (
	"math"
	"os"
	"strconv"
	"testing"

	"bpwrapper"
)

// obsGuardIDs is the hot set the guard variants cycle through.
func obsGuardIDs() []bpwrapper.PageID {
	ids := make([]bpwrapper.PageID, 1024)
	for i := range ids {
		ids[i] = bpwrapper.NewPageID(1, uint64(i))
	}
	return ids
}

// obsGuardPool builds the fully cached batched pool the guard loops
// over: observability off entirely, on (the flight recorder plus
// a registered exposition registry, exactly what `-obs` enables in
// bpserver/bpload), or on with request tracing armed at the production
// default sampling rate.
func obsGuardPool(tb testing.TB, obsOn, traceOn bool) (*bpwrapper.Pool, *bpwrapper.PoolSession, []bpwrapper.PageID) {
	cfg := bpwrapper.PoolConfig{
		Frames:        1024,
		PolicyFactory: bpwrapper.PolicyFactories()["2q"],
		Wrapper:       bpwrapper.WrapperConfig{Batching: true},
		Device:        bpwrapper.NewMemDevice(),
	}
	if obsOn {
		cfg.RecorderSize = 4096
	}
	if traceOn {
		cfg.Trace = bpwrapper.TraceConfig{Enable: true}
	}
	pool := bpwrapper.NewPool(cfg)
	if obsOn {
		pool.RegisterObs(bpwrapper.NewObsRegistry())
	}
	ids := obsGuardIDs()
	if err := pool.Prewarm(ids); err != nil {
		tb.Fatal(err)
	}
	return pool, pool.NewSession(), ids
}

// obsGetLoop drives the system fast path — pool.Get on a fully cached
// batched pool — under one of the observability configurations above.
func obsGetLoop(b *testing.B, obsOn, traceOn bool) {
	pool, s, ids := obsGuardPool(b, obsOn, traceOn)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref, err := pool.Get(s, ids[i%1024])
		if err != nil {
			b.Fatal(err)
		}
		ref.Release()
	}
	b.StopTimer()
	s.Flush()
}

// BenchmarkPoolGetObs measures the system fast path, the quantity the
// guard below enforces, with observability off, on (flight recorders plus
// a registered registry), and on with tracing armed, whose untraced
// iterations pay only a sampling-counter decrement.
func BenchmarkPoolGetObs(b *testing.B) {
	b.Run("obs-off", func(b *testing.B) { obsGetLoop(b, false, false) })
	b.Run("obs-on", func(b *testing.B) { obsGetLoop(b, true, false) })
	b.Run("trace-on", func(b *testing.B) { obsGetLoop(b, true, true) })
}

// obsGuardFloorNs is the excess the guard always allows, however fast the
// obs-off path gets: a relative budget tightens as the base speeds up, and
// the tracing arm's untraced branch costs a fixed ≈ 2.3 ns.
const obsGuardFloorNs = 3.0

// TestObsOverheadGuard asserts the obs-on pool.Get path is within the
// observability budget of the obs-off path: a share of it, or
// obsGuardFloorNs, whichever is larger. Timing-based, so it only runs when
// BPW_OBS_GUARD=1 (CI sets it in the bench-smoke job); the share defaults to
// 3% and can be widened with BPW_OBS_GUARD_PCT for noisy hosts.
func TestObsOverheadGuard(t *testing.T) {
	if os.Getenv("BPW_OBS_GUARD") == "" {
		t.Skip("timing guard; set BPW_OBS_GUARD=1 to run")
	}
	pct := 3.0
	if s := os.Getenv("BPW_OBS_GUARD_PCT"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("BPW_OBS_GUARD_PCT: %v", err)
		}
		pct = v
	}

	// Best-of-N per variant to shed scheduler and frequency-scaling
	// noise: the minimum is the cleanest estimate of the true cost of a
	// tight uncontended loop. Each round measures all three variants back
	// to back, so a change of host regime (a noisy neighbour, a frequency
	// step) lands on all three minima and not on one side of the ratio.
	const rounds = 7
	variants := [3]struct{ obsOn, traceOn bool }{{false, false}, {true, false}, {true, true}}
	best := [3]float64{math.MaxFloat64, math.MaxFloat64, math.MaxFloat64}
	for r := 0; r < rounds; r++ {
		for i, v := range variants {
			res := testing.Benchmark(func(b *testing.B) { obsGetLoop(b, v.obsOn, v.traceOn) })
			if ns := float64(res.T.Nanoseconds()) / float64(res.N); ns < best[i] {
				best[i] = ns
			}
		}
	}
	off, on, traced := best[0], best[1], best[2]
	budget := max(off*pct/100, obsGuardFloorNs)

	t.Logf("pool.Get: obs-off %.2f ns/op, obs-on %.2f ns/op, overhead %.2f ns (budget %.2f ns: %.1f%% or %.1f ns)", off, on, on-off, budget, pct, obsGuardFloorNs)
	if on-off > budget {
		t.Errorf("observability overhead %.2f ns exceeds the %.2f ns budget", on-off, budget)
	}
	t.Logf("pool.Get: trace-on %.2f ns/op, overhead %.2f ns (budget %.2f ns)", traced, traced-off, budget)
	if traced-off > budget {
		t.Errorf("tracing overhead %.2f ns exceeds the %.2f ns budget", traced-off, budget)
	}
}

// TestTraceHitPathZeroAlloc pins the tracing layer's untraced fast path
// at zero allocations: with tracing armed but the sampler set so no
// request in the loop is selected, a resident pool.Get must not allocate.
// Unlike the timing guard this is deterministic, so it always runs.
func TestTraceHitPathZeroAlloc(t *testing.T) {
	pool := bpwrapper.NewPool(bpwrapper.PoolConfig{
		Frames:        1024,
		PolicyFactory: bpwrapper.PolicyFactories()["2q"],
		Wrapper:       bpwrapper.WrapperConfig{Batching: true},
		Device:        bpwrapper.NewMemDevice(),
		// A sampling interval far beyond the loop below: tracing is live
		// but every one of these requests goes untraced.
		Trace: bpwrapper.TraceConfig{Enable: true, SampleEvery: 1 << 30},
	})
	ids := obsGuardIDs()
	if err := pool.Prewarm(ids); err != nil {
		t.Fatal(err)
	}
	s := pool.NewSession()
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		ref, err := pool.Get(s, ids[i%1024])
		if err != nil {
			t.Fatal(err)
		}
		ref.Release()
		i++
	})
	s.Flush()
	if allocs != 0 {
		t.Errorf("untraced resident Get allocates %.1f times per op, want 0", allocs)
	}
}
