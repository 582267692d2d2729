// Package sched provides the interleaving-injection hook used by the
// concurrency torture harness (internal/torture).
//
// Rare concurrency bugs hide in interleavings the Go scheduler almost never
// produces on its own: stress tests hammer the same few schedules over and
// over while the one that loses an access or inverts a commit order needs a
// preemption inside a ten-instruction window. Following the methodology of
// systematic-interleaving testing (see "Lock-Free Locks Revisited" in
// PAPERS.md), the concurrent code in internal/core and internal/buffer (and
// the reader of internal/metrics' record ring) is instrumented with named
// Yield points at the boundaries where cross-thread visibility changes —
// publish/claim handoffs, quarantine parking, table-install windows, the
// window a ring snapshot can tear in. In production the hook is nil and
// Yield is a single atomic load and a predicted-not-taken branch; the
// torture harness installs a seeded perturber that decides pseudo-randomly,
// per point, whether to reschedule — so a failing run's interleaving
// pressure is reproducible from its seed.
package sched

import "sync/atomic"

// Point names one instrumented interleaving site. The torture harness keys
// its seeded yield decisions on the point, so adding a point changes the
// decision stream of existing seeds but not their validity.
type Point uint8

// Instrumented sites. Core (wrapper/commit) points first, then buffer-pool
// points, then the record ring's.
const (
	// CoreCommitTry: a batched session is about to TryLock for a
	// threshold commit.
	CoreCommitTry Point = iota
	// CoreCommitApply: the lock is held and a batch is about to be applied.
	CoreCommitApply
	// CoreMissLock: a miss has captured its pending batch and is about to
	// take the blocking lock.
	CoreMissLock
	// CoreFCPublish: a flat-combining session has published its batch and
	// is about to try the lock once.
	CoreFCPublish
	// CoreFCCombine: a combiner has claimed another session's published
	// batch and is about to apply it.
	CoreFCCombine
	// BufLoadInstall: a miss has read the page and is about to install the
	// frame in the hash table.
	BufLoadInstall
	// BufReclaimClaim: reclaim has claimed a victim frame (pins 0→1) and
	// is about to unmap it.
	BufReclaimClaim
	// BufEvictWrite: reclaim has unmapped a dirty victim and registered
	// its in-flight op, and is about to take the page's write-back stripe
	// and write the frame out.
	BufEvictWrite
	// BufFlushWrite: flushFrame has pinned a dirty frame and is about to
	// take the page's write-back stripe and write the frame out.
	BufFlushWrite
	// BufHitProbe: an optimistic bucket probe observed a torn seqlock read
	// and is about to retry.
	BufHitProbe
	// BufHitPin: a hit-path lookup resolved a frame and is about to CAS a
	// pin onto its state word.
	BufHitPin
	// BufBucketWrite: a bucket writer has bumped the seqlock to odd and is
	// about to mutate the slot array.
	BufBucketWrite
	// RingSnapshot: a record-ring reader (metrics.Ring.Snapshot) has loaded
	// a slot's end stamp and is about to read its payload — the window a
	// writer must be caught in for the read to tear. The reader is the
	// cold side; writers carry no point.
	RingSnapshot

	// NumPoints is the number of instrumented sites.
	NumPoints
)

// Hook is the perturber the torture harness installs: called synchronously
// at every instrumented point from whatever goroutine reaches it. It must
// be safe for concurrent use and must not block indefinitely.
type Hook func(Point)

var hook atomic.Pointer[Hook]

// Yield invokes the installed hook, if any. The nil-hook fast path is one
// atomic pointer load; call sites in production code pay no other cost.
func Yield(pt Point) {
	if h := hook.Load(); h != nil {
		(*h)(pt)
	}
}

// SetHook installs h as the process-wide perturber and returns a restore
// function that reinstates the previous hook. Tests must call the restore
// function when done (typically via t.Cleanup) and must not run torture
// drivers concurrently with other hook owners — the torture harness
// serializes installation with a package-level mutex.
func SetHook(h Hook) (restore func()) {
	prev := hook.Swap(&h)
	return func() { hook.Store(prev) }
}

// Enabled reports whether a hook is currently installed; used by
// diagnostics and tests.
func Enabled() bool { return hook.Load() != nil }
