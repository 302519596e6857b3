//go:build race

package ring

// contractChecks turns on the package's contract checks under the race
// detector: PolyPool's Get poisons the rows it hands out and Put refuses an
// arena that is already pooled (see PolyPool), and PermuteRow and
// PermuteAddRow refuse an index table that is not a permutation. The race
// pass is where every pooled and permuting path runs anyway, so the checks
// cost nothing in the builds that are timed.
const contractChecks = true
