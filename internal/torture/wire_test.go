package torture

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bpwrapper/internal/buffer"
	"bpwrapper/internal/page"
	"bpwrapper/internal/replacer"
	"bpwrapper/internal/server"
	"bpwrapper/internal/storage"
)

// wireExpectedLog replays a trace into the per-session record sequence a
// wire run must produce. Over the wire a session cannot address the
// policy directly — it addresses pages — so a Miss access i GETs the
// fresh page ID(s,i) (reaching the policy as Admit) and a hit access
// re-GETs the session's most recent fresh page (reaching the policy as a
// Hit on that identity). The E13 oracle clauses carry over intact:
// per-session order, exactly-once, and flavor all remain exact.
func wireExpectedLog(t *Trace) [][]Record {
	exp := make([][]Record, len(t.Sessions))
	for s, accs := range t.Sessions {
		lastFresh := uint64(0)
		for i, a := range accs {
			if a.Miss {
				lastFresh = uint64(i)
				exp[s] = append(exp[s], Record{Session: uint32(s), Seq: uint64(i), Miss: true})
			} else {
				exp[s] = append(exp[s], Record{Session: uint32(s), Seq: lastFresh, Miss: false})
			}
		}
	}
	return exp
}

// checkWireOracle verifies a policy-side log against the wire-adapted
// expectation: the projection of the log onto each session equals its
// expected sequence exactly — order preserved, nothing lost, nothing
// duplicated, every record the right flavor.
func checkWireOracle(t *Trace, log []Record, exp [][]Record) error {
	next := make([]int, len(exp))
	for i, rec := range log {
		s := int(rec.Session)
		if s < 0 || s >= len(exp) {
			return fmt.Errorf("seed %d: log[%d]: phantom session %d", t.Seed, i, rec.Session)
		}
		if next[s] >= len(exp[s]) {
			return fmt.Errorf("seed %d: log[%d]: session %d produced %d records, trace has %d",
				t.Seed, i, s, next[s]+1, len(exp[s]))
		}
		want := exp[s][next[s]]
		if rec != want {
			return fmt.Errorf("seed %d: log[%d]: session %d record %d is %+v, want %+v (order/flavour violation)",
				t.Seed, i, s, next[s], rec, want)
		}
		next[s]++
	}
	for s := range exp {
		if next[s] != len(exp[s]) {
			return fmt.Errorf("seed %d: session %d: %d of %d accesses lost through the wire",
				t.Seed, s, len(exp[s])-next[s], len(exp[s]))
		}
	}
	return nil
}

// runWireTrace drives one E13 trace through a loopback bpserver — one
// client connection per trace session, accesses pipelined in bursts —
// and returns the checker policy's log.
func runWireTrace(t *testing.T, trace *Trace, path Path, pipeline int) []Record {
	t.Helper()
	// Frames exceed the number of distinct pages: the checker policy
	// never evicts, so the free list must cover every fresh page.
	frames := trace.Total() + 64
	pol := &checkerPolicy{}
	pool := buffer.New(buffer.Config{
		Frames:        frames,
		PolicyFactory: func(int) replacer.Policy { return pol },
		Wrapper:       configFor(path, 16),
		Device:        storage.NewMemDevice(),
	})
	srv, err := server.New(server.Config{Pool: pool, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}

	var wg sync.WaitGroup
	errs := make([]error, len(trace.Sessions))
	for s := range trace.Sessions {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			c, err := server.Dial(srv.Addr())
			if err != nil {
				errs[s] = err
				return
			}
			defer c.Close()
			lastFresh := trace.ID(s, 0)
			var ops []server.Op
			flush := func() bool {
				if len(ops) == 0 {
					return true
				}
				results, err := c.Do(ops)
				ops = ops[:0]
				if err != nil {
					errs[s] = err
					return false
				}
				for i := range results {
					if results[i].Err != nil {
						errs[s] = results[i].Err
						return false
					}
				}
				return true
			}
			for i, a := range trace.Sessions[s] {
				id := lastFresh
				if a.Miss {
					id = trace.ID(s, i)
					lastFresh = id
				}
				ops = append(ops, server.Op{Code: server.OpGet, Page: id})
				if len(ops) >= pipeline {
					if !flush() {
						return
					}
				}
			}
			flush()
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			t.Fatalf("seed %d: session %d: %v", trace.Seed, s, err)
		}
	}
	// Close waits for the handlers, whose exit paths flush the sessions:
	// after it, the log is complete and quiescent.
	srv.Close()
	if err := pool.Close(); err != nil {
		t.Fatalf("seed %d: pool.Close: %v", trace.Seed, err)
	}
	return pol.log
}

// TestWireTortureOrderOracle is the E13 order/exactly-once oracle run
// over the wire: the seeded trace travels through loopback TCP, the
// server's per-connection sessions, and the full batching commit path,
// and the policy-side log must still satisfy every oracle clause. The
// checker policy keeps its no-mutex race canary: any unserialized
// application introduced by the network layer fails -race runs.
func TestWireTortureOrderOracle(t *testing.T) {
	seed := SeedFromEnv(0x3173)
	sessions, length := 4, 200
	paths := []Path{PathDirect, PathBatch, PathFC}
	if LongMode() {
		sessions, length = 8, 1500
		paths = Paths()
	}
	trace := NewTrace(seed, sessions, length, 0.5)
	// A session's first access must be fresh: there is nothing resident
	// to re-GET before the first admission.
	for s := range trace.Sessions {
		trace.Sessions[s][0].Miss = true
	}
	exp := wireExpectedLog(trace)
	for _, path := range paths {
		path := path
		t.Run(string(path), func(t *testing.T) {
			log := runWireTrace(t, trace, path, 16)
			if err := checkWireOracle(trace, log, exp); err != nil {
				t.Fatalf("%v (%s)", err, ReportSeed(seed))
			}
		})
	}
}

// TestWireTortureDrainDifferential is the cross-layer content oracle of
// RunPool carried over the wire, with a graceful drain fired mid-trace:
// remote workers read with the version-window check and write their
// owned blocks through acknowledged PUTs while the server drains under
// them. Invariants:
//
//   - no read returns torn or stale-beyond-window content;
//   - workers end only via typed refusals (OVERLOADED/DRAINING) or a
//     transport cut, never corrupted frames;
//   - zero lost dirty pages: after the drain, every block's device copy
//     is a complete stamp of its last acknowledged version — or one
//     newer (an applied write whose ack died with the connection), never
//     older and never torn.
//
// Tier-1 runs lru; long mode runs every policy of replacer.Names().
func TestWireTortureDrainDifferential(t *testing.T) {
	seed := SeedFromEnv(0x77171)
	if !LongMode() {
		wireDrainDifferential(t, seed, "lru", 4, 96, 32, 60*time.Millisecond)
		return
	}
	for _, pol := range replacer.Names() {
		t.Run(pol, func(t *testing.T) {
			wireDrainDifferential(t, seed, pol, 8, 512, 128, 1500*time.Millisecond)
		})
	}
}

// wireDrainDifferential is one run of TestWireTortureDrainDifferential:
// workers clients over pages blocks of a frames-frame pool under policy,
// drained after runFor.
func wireDrainDifferential(t *testing.T, seed int64, policy string, workers, pages, frames int, runFor time.Duration) {
	mem := storage.NewMemDevice()
	for b := 0; b < pages; b++ {
		var pg page.Page
		pg.Stamp(stampID(b, 0))
		pg.ID = poolPage(b)
		if err := mem.WritePage(&pg); err != nil {
			t.Fatalf("preload: %v", err)
		}
	}
	pool := buffer.New(buffer.Config{
		Frames:        frames,
		PolicyFactory: replacer.Factories()[policy],
		Wrapper:       configFor(PathBatch, 16),
		Device:        mem,
	})
	srv, err := server.New(server.Config{Pool: pool, Addr: "127.0.0.1:0", DrainGrace: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	defer srv.Close()

	versions := make([]atomic.Int64, pages)
	var shed, drained atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := server.Dial(srv.Addr())
			if err != nil {
				errs[w] = err
				return
			}
			defer c.Close()
			r := rand.New(rand.NewSource(seed ^ int64(w)<<16))
			var pg page.Page
			for {
				b := r.Intn(pages)
				if r.Intn(10) < 6 { // read anywhere, verify the window
					v1 := versions[b].Load()
					data, err := c.Get(poolPage(b))
					if err != nil {
						if errors.Is(err, buffer.ErrOverloaded) {
							shed.Add(1)
							continue
						}
						if wireRunEnded(err) {
							drained.Add(1)
							return
						}
						errs[w] = fmt.Errorf("seed %d: worker %d: Get(%d): %w", seed, w, b, err)
						return
					}
					copy(pg.Data[:], data)
					v2 := versions[b].Load()
					ok := false
					for v := v1; v <= v2+1; v++ {
						if pg.VerifyStamp(stampID(b, int(v))) {
							ok = true
							break
						}
					}
					if !ok {
						errs[w] = fmt.Errorf("seed %d: worker %d: page %d matches no version in [%d, %d] — torn or lost write over the wire",
							seed, w, b, v1, v2+1)
						return
					}
				} else { // write an owned block
					b = b - b%workers + w
					if b >= pages {
						continue
					}
					next := int(versions[b].Load()) + 1
					pg.Stamp(stampID(b, next))
					err := c.Put(poolPage(b), pg.Data[:])
					if err != nil {
						if errors.Is(err, buffer.ErrOverloaded) {
							shed.Add(1)
							continue
						}
						if wireRunEnded(err) {
							drained.Add(1)
							return
						}
						errs[w] = fmt.Errorf("seed %d: worker %d: Put(%d): %w", seed, w, b, err)
						return
					}
					// Acknowledged: the server applied it. Bump the shadow
					// only now, so the device oracle below never demands an
					// unacknowledged write.
					versions[b].Store(int64(next))
				}
			}
		}(w)
	}

	time.Sleep(runFor)
	if err := srv.Drain(30 * time.Second); err != nil {
		t.Fatalf("seed %d: Drain under load: %v", seed, err)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatalf("%v (%s)", err, ReportSeed(seed))
		}
	}
	if n := drained.Load(); n == 0 {
		t.Fatalf("seed %d: no worker observed the drain — the race never happened", seed)
	}

	// Zero-lost-dirty over the wire: every block's device copy is a
	// complete stamp of its last acknowledged version or the one write
	// that was applied but unacknowledged when the drain cut the
	// connection (sync round trips: at most one in flight per worker).
	for b := 0; b < pages; b++ {
		var pg page.Page
		if err := mem.ReadPage(poolPage(b), &pg); err != nil {
			t.Fatalf("seed %d: post-drain read of block %d: %v", seed, b, err)
		}
		v := int(versions[b].Load())
		if !pg.VerifyStamp(stampID(b, v)) && !pg.VerifyStamp(stampID(b, v+1)) {
			t.Fatalf("seed %d: block %d: device holds neither acked version %d nor in-flight %d — dirty page lost through drain (%s)",
				seed, b, v, v+1, ReportSeed(seed))
		}
	}
	if st := pool.Stats(); st.Dirty != 0 || st.Quarantined != 0 {
		t.Fatalf("seed %d: pool not clean after drain: dirty=%d quarantined=%d", seed, st.Dirty, st.Quarantined)
	}
	if err := pool.CheckInvariants(); err != nil {
		t.Fatalf("seed %d: post-drain invariants: %v", seed, err)
	}
}

// wireRunEnded reports whether a client error is a legal end-of-run
// signal during a drain: the typed DRAINING refusal or a transport cut.
func wireRunEnded(err error) bool {
	if errors.Is(err, server.ErrDraining) {
		return true
	}
	// Transport errors (poked/closed connections) surface as io/net
	// errors with no sentinel; anything that is NOT a typed pool error
	// counts as a cut.
	return !errors.Is(err, buffer.ErrOverloaded) &&
		!errors.Is(err, buffer.ErrNoUnpinnedBuffers) &&
		!errors.Is(err, storage.ErrInvalidPage)
}
