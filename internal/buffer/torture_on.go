//go:build torture

package buffer

import "sync/atomic"

// forceLocked, in torture builds only, sends every table lookup through
// the bucket mutex: the sequential reference the seqlock probe is checked
// against (the hit-path differentials here and in internal/torture).
var forceLocked atomic.Bool

func lockedLookup() bool { return forceLocked.Load() }

// ForceLockedLookup switches the reference lookup on or off for every
// pool in the process and returns the previous setting. It exists in
// torture builds alone, for the differential in internal/torture, which
// cannot reach an unexported seam; callers switch it at quiescence.
func ForceLockedLookup(on bool) (was bool) { return forceLocked.Swap(on) }
