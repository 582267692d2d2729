//go:build !torture

package buffer

import "bpwrapper/internal/page"

// lockedLookup is false outside torture builds, and a constant: hitLookup
// compiles to the seqlock probe with the bucket mutex as its fallback, and
// nothing selects between them.
func lockedLookup() bool { return false }

// assertNotParked is torture_on.go's install check, compiled out.
func assertNotParked(*Pool, page.PageID) {}
