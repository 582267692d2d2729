//go:build !torture

package buffer

import "testing"

// referenceLookup reports false: the switch that puts a test on the mutex
// lookup exists in torture builds only, and the test runs the product path.
func referenceLookup(t *testing.T) bool {
	t.Log("not a torture build: running the seqlock lookup; -tags torture runs the mutex reference")
	return false
}
