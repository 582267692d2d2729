//go:build torture

package torture

import "bpwrapper/internal/buffer"

// referenceLookup runs fn with every pool in the process on the mutex
// lookup, and reports that it did. The switch is process-wide: nothing
// else may run pools meanwhile.
func referenceLookup(fn func()) bool {
	was := buffer.ForceLockedLookup(true)
	defer buffer.ForceLockedLookup(was)
	fn()
	return true
}
