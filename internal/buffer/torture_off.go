//go:build !torture

package buffer

// lockedLookup is false outside torture builds, and a constant: hitLookup
// compiles to the seqlock probe with the bucket mutex as its fallback, and
// nothing selects between them.
func lockedLookup() bool { return false }
