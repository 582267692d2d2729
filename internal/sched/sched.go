// Package sched is the repository's one cooperative executor (Kernel) and
// the named interleaving points (Yield) it steers. Following systematic-
// interleaving testing ("Lock-Free Locks Revisited", PAPERS.md), the
// concurrent code in internal/core, internal/buffer and the record ring of
// internal/metrics yields where cross-thread visibility changes: the
// interleavings the Go scheduler almost never produces. With no hook a
// point is one atomic load. The torture harness installs a seeded
// perturber (SetHook); Run installs a Kernel whose threads take turns that
// end at the points and at would-block ContentionMutex acquires
// (WouldBlock), a Schedule naming who takes the next.
package sched

import "sync/atomic"

// Point names one instrumented interleaving site. Adding one changes the
// torture harness's decision stream for a seed, not the seed's validity.
type Point uint8

// The sites: the wrapper's, the pool's, then the record ring's.
const (
	CoreCommitTry   Point = iota // a batched session is about to TryLock for a threshold commit
	CoreCommitApply              // the policy lock is held and a batch is about to be applied
	CoreMissLock                 // a miss has captured its pending batch and is about to Lock
	CoreFCPublish                // a flat-combining session has published and is about to try once
	CoreFCCombine                // a combiner has claimed another session's batch and is about to apply it
	BufLoadInstall               // a miss has read its page and is about to install the frame
	BufReclaimClaim              // reclaim has claimed a victim frame and is about to unmap it
	BufEvictWrite                // a dirty victim is unmapped, its op registered; its write is next
	BufFlushWrite                // flushFrame has pinned a dirty frame and is about to write it
	BufHitProbe                  // an optimistic bucket probe read torn and is about to retry
	BufHitPin                    // a lookup resolved a frame and is about to CAS a pin onto it
	BufBucketWrite               // a bucket writer has made the seqlock odd, about to mutate
	BufBackoff                   // a spin loop (pin, reader drain, recycled frame) is about to back off
	RingSnapshot                 // Ring.Snapshot has loaded a slot's end stamp, about to read its payload
	RingPut                      // Ring.Put has stored its begin stamp, about to store its payload
	// NumPoints is the number of instrumented sites.
	NumPoints
	// Parked and Done end a turn of Run without a site: the thread parked
	// on a would-block acquire, or returned.
	Parked
	Done
)

// Hook is the torture harness's perturber, called at every point by
// whatever goroutine reaches it: safe for concurrent use, never blocking.
type Hook func(Point)

// hooks is what is installed: Yield's hook and, under Run, WouldBlock's.
type hooks struct {
	yield Hook
	park  func(lock any, retry bool) bool
}

var hook atomic.Pointer[hooks]

// Yield invokes the installed hook, if any: with none, one atomic load.
func Yield(pt Point) {
	if h := hook.Load(); h != nil {
		h.yield(pt)
	}
}

// WouldBlock is called by a lock whose acquire would block. From one of
// Run's threads it parks the thread until its next turn and returns true:
// the caller retries, with retry true if that fails again. Otherwise it
// returns false and the caller blocks as usual.
func WouldBlock(lock any, retry bool) bool {
	h := hook.Load()
	return h != nil && h.park != nil && h.park(lock, retry)
}

// SetHook installs h process-wide and returns the function that restores
// the previous hook. Hook owners must not overlap: the torture harness
// serializes its own with a mutex.
func SetHook(h Hook) (restore func()) { return install(&hooks{yield: h}) }

func install(h *hooks) (restore func()) {
	prev := hook.Swap(h)
	return func() { hook.Store(prev) }
}
