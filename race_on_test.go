//go:build race

package fast

// raceEnabled reports whether the race detector is active.
const raceEnabled = true
