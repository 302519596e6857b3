//go:build !race

package fast

// raceEnabled reports whether the race detector is active. Timing assertions
// are skipped under -race: the instrumentation slows the kernels unevenly.
const raceEnabled = false
