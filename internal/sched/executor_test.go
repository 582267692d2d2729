package sched_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"bpwrapper/internal/core"
	"bpwrapper/internal/metrics"
	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/sched"
)

// twoSessions returns a batched wrapper over LRU and two session bodies:
// each misses its own pages in and re-hits the newest eight after every
// miss, so threshold commits (TryLock), misses (Lock) and the other
// session's lock holds meet at the wrapper's points.
func twoSessions() (*core.Wrapper, []func()) {
	w := core.New(replacer.Factories()["lru"](1024), core.Config{Batching: true, QueueSize: 8})
	var bodies []func()
	for g := uint32(1); g <= 2; g++ {
		bodies = append(bodies, func() {
			s := w.NewSession()
			for r := uint64(1); r <= 15; r++ {
				id := page.NewPageID(g, r)
				s.Miss(id, page.BufferTag{Page: id})
				for j := r; j > 0 && j+8 > r; j-- {
					h := page.NewPageID(g, j)
					s.Hit(h, page.BufferTag{Page: h})
				}
			}
			s.Flush()
		})
	}
	return w, bodies
}

// TestRunReplaysTheSameTurns: a schedule is a replayable name for an
// interleaving. The same schedule over the same product code takes the
// same turns, (thread, point) for (thread, point), on every run and at any
// GOMAXPROCS.
func TestRunReplaysTheSameTurns(t *testing.T) {
	schedules := map[string]func() sched.Schedule{
		"replay": func() sched.Schedule { return sched.Replay(1, 1, 0, 1, 0, 0, 1) },
		"seeded": func() sched.Schedule { return sched.Seeded(7) },
	}
	for name, s := range schedules {
		var want string
		for _, procs := range []int{1, 2, 8} {
			prev := runtime.GOMAXPROCS(procs)
			for run := 0; run < 20; run++ {
				_, bodies := twoSessions()
				steps, err := sched.Run(s(), bodies...)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got := fmt.Sprint(steps)
				if want == "" {
					want = got
				}
				if got != want {
					runtime.GOMAXPROCS(prev)
					t.Fatalf("%s at GOMAXPROCS=%d, run %d: turns differ from the first run:\n%s\nwant\n%s", name, procs, run, got, want)
				}
			}
			runtime.GOMAXPROCS(prev)
		}
		if n := strings.Count(want, "{"); n < 20 {
			t.Fatalf("%s: only %d turns: %s", name, n, want)
		}
	}
}

// TestRunCountsTheSameLockEvents is the paper's metric on a named
// schedule: two sessions on one Wrapper read the same acquisitions,
// contentions and TryLock failures on every run, and the schedule does
// make them meet at the lock.
func TestRunCountsTheSameLockEvents(t *testing.T) {
	var want metrics.LockStats
	for run := 0; run < 10; run++ {
		w, bodies := twoSessions()
		if _, err := sched.Run(sched.Seeded(3), bodies...); err != nil {
			t.Fatal(err)
		}
		got := w.Stats().Lock
		got.WaitTime = 0 // wall clock, not a count
		if run == 0 {
			want = got
			if got.Contentions == 0 || got.TryFailures == 0 {
				t.Fatalf("the schedule never met the lock held: %+v", got)
			}
		}
		if got != want {
			t.Fatalf("run %d read %+v, run 0 read %+v", run, got, want)
		}
	}
	t.Logf("lock: %+v", want)
}

// TestRunReportsDeadlock: when every thread is parked on a would-block
// acquire, the run ends at once with an error naming who waits on which
// lock and who holds it, instead of hanging until the test times out.
func TestRunReportsDeadlock(t *testing.T) {
	var a, b metrics.ContentionMutex
	lockBoth := func(first, second *metrics.ContentionMutex) func() {
		return func() {
			first.Lock()
			sched.Yield(sched.CoreCommitApply)
			second.Lock()
			second.Unlock()
			first.Unlock()
		}
	}
	steps, err := sched.Run(sched.Replay(0, 1), lockBoth(&a, &b), lockBoth(&b, &a))
	if err == nil {
		t.Fatalf("an inverted lock order ran to the end: %v", steps)
	}
	for _, want := range []string{
		"deadlock",
		fmt.Sprintf("thread 0 waits on %p, held by thread [1]", &b),
		fmt.Sprintf("thread 1 waits on %p, held by thread [0]", &a),
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("report %q does not name %q", err, want)
		}
	}
	if c := a.Stats().Contentions + b.Stats().Contentions; c != 2 {
		t.Errorf("%d contentions, want the two parked acquires", c)
	}
}
