//go:build torture

package buffer

import (
	"fmt"
	"sync/atomic"

	"bpwrapper/internal/page"
)

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

// assertNotParked checks, at every install, that a page is mapped or
// parked, never both: the page load just installed, still pinned by the
// loader, must have no quarantine entry. An empty quarantine is read off
// its count, as quarantineTake reads it, so a miss with nothing parked
// still takes no quarantine lock.
func assertNotParked(sh *shard, id page.PageID) {
	if sh.quarantineLen() == 0 {
		return
	}
	sh.quarMu.Lock()
	_, parked := sh.quarantine[id]
	sh.quarMu.Unlock()
	if parked {
		panic(fmt.Sprintf("buffer: page %v installed in a frame while parked in the quarantine", id))
	}
}
