package metrics

import "sync/atomic"

// AccessCounters aggregates the buffer-access statistics every experiment
// reports: hits, misses, and (derived) hit ratio. All methods are safe for
// concurrent use.
type AccessCounters struct {
	hits   atomic.Int64
	misses atomic.Int64

	// resetting marks a Reset in progress. It exists only to let torture
	// builds (-tags torture) turn the quiescent-only Reset contract into a
	// panic when violated; release builds never touch it.
	resetting atomic.Int32
}

// Hit records one buffer hit.
func (c *AccessCounters) Hit() {
	if tortureChecks && c.resetting.Load() != 0 {
		panic("metrics: AccessCounters.Hit raced Reset — Reset is quiescent-only")
	}
	c.hits.Add(1)
}

// AddHits records n buffer hits at once. The sharded pool's sessions stage
// hits in session-local memory and fold them in batches, so the hot path
// does not write this shared cacheline per access.
func (c *AccessCounters) AddHits(n int64) {
	if n == 0 {
		return
	}
	if tortureChecks && c.resetting.Load() != 0 {
		panic("metrics: AccessCounters.AddHits raced Reset — Reset is quiescent-only")
	}
	c.hits.Add(n)
}

// Miss records one buffer miss.
func (c *AccessCounters) Miss() {
	if tortureChecks && c.resetting.Load() != 0 {
		panic("metrics: AccessCounters.Miss raced Reset — Reset is quiescent-only")
	}
	c.misses.Add(1)
}

// Hits returns the number of recorded hits.
func (c *AccessCounters) Hits() int64 { return c.hits.Load() }

// Misses returns the number of recorded misses.
func (c *AccessCounters) Misses() int64 { return c.misses.Load() }

// Accesses returns hits + misses.
func (c *AccessCounters) Accesses() int64 { return c.hits.Load() + c.misses.Load() }

// HitRatio returns hits / (hits + misses), or 0 with no accesses.
func (c *AccessCounters) HitRatio() float64 {
	h, m := c.hits.Load(), c.misses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// Reset zeroes the counters.
//
// Reset is quiescent-only: the two stores are not atomic as a pair, so a
// concurrent Snapshot (or Hit/Miss) can observe pre-Reset hits with
// post-Reset misses — an inconsistent pair that undercounts accesses and
// skews the hit ratio. Callers must ensure no sessions are recording and
// no scraper is snapshotting while Reset runs; the in-tree caller,
// Pool.ResetStats, does so at a quiescent point. Builds
// with -tags torture enforce the contract with a panic.
func (c *AccessCounters) Reset() {
	if tortureChecks {
		if !c.resetting.CompareAndSwap(0, 1) {
			panic("metrics: concurrent AccessCounters.Reset calls — Reset is quiescent-only")
		}
		defer c.resetting.Store(0)
	}
	c.hits.Store(0)
	c.misses.Store(0)
}

// AccessSnapshot is a point-in-time copy of an AccessCounters, taken as a
// pair so derived figures (Accesses, HitRatio) come from the same reads
// instead of racing re-loads.
type AccessSnapshot struct {
	Hits   int64
	Misses int64
}

// Snapshot captures the counters. Hits are loaded before misses — the same
// direction the hot paths increment them (an access bumps exactly one) —
// so a snapshot folded into an aggregate can undercount in-flight
// activity but never manufactures accesses that did not happen. That
// one-sided guarantee assumes the counters only grow: Snapshot must not
// race Reset (see Reset).
func (c *AccessCounters) Snapshot() AccessSnapshot {
	if tortureChecks && c.resetting.Load() != 0 {
		panic("metrics: AccessCounters.Snapshot raced Reset — Reset is quiescent-only")
	}
	h := c.hits.Load()
	m := c.misses.Load()
	return AccessSnapshot{Hits: h, Misses: m}
}

// Accesses returns hits + misses of the snapshot.
func (a AccessSnapshot) Accesses() int64 { return a.Hits + a.Misses }

// HitRatio returns hits / (hits + misses), or 0 with no accesses, derived
// from the snapshot's own pair.
func (a AccessSnapshot) HitRatio() float64 {
	if a.Hits+a.Misses == 0 {
		return 0
	}
	return float64(a.Hits) / float64(a.Hits+a.Misses)
}

// Plus returns the field-wise sum of two snapshots, for aggregating the
// per-shard counters of a sharded pool.
func (a AccessSnapshot) Plus(o AccessSnapshot) AccessSnapshot {
	a.Hits += o.Hits
	a.Misses += o.Misses
	return a
}
