//go:build !torture

package torture

// referenceLookup reports false without running fn: the switch that puts
// pools on the mutex lookup exists in torture builds only.
func referenceLookup(fn func()) bool { return false }
