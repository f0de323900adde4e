//go:build !race

package dynplan

// raceEnabled reports that the race detector is on. Its instrumentation
// allocates, so allocation pins do not apply.
const raceEnabled = false
