//go:build race

package server

// raceEnabled reports whether the race detector is compiled in: its
// instrumentation allocates, so allocation counts are asserted only
// without it.
const raceEnabled = true
