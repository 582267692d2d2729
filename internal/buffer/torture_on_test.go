//go:build torture

package buffer

import "testing"

// referenceLookup puts the rest of the test on the mutex lookup and
// reports that it did.
func referenceLookup(t *testing.T) bool {
	was := ForceLockedLookup(true)
	t.Cleanup(func() { ForceLockedLookup(was) })
	return true
}
