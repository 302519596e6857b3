//go:build !race

package ring

// poolChecks is off outside the race detector: see pool_race.go.
const poolChecks = false
