//go:build race

package ring

// poolChecks turns on PolyPool's contract checks under the race detector:
// Get poisons the rows it hands out and Put refuses an arena that is already
// pooled (see PolyPool). The race pass is where every pooled path runs
// anyway, so the checks cost nothing in the builds that are timed.
const poolChecks = true
