//go:build !race

package ring

// contractChecks is off outside the race detector: see pool_race.go.
const contractChecks = false
