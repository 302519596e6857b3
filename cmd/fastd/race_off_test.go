//go:build !race

package main

// raceEnabled reports whether the race detector is active. The allocation
// budget is skipped under -race: the race runtime's own allocations would
// make the bound meaningless.
const raceEnabled = false
