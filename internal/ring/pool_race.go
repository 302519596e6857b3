//go:build race

package ring

// contractChecks turns on the package's contract checks under the race
// detector: PolyPool's Get poisons the rows it hands out and Put refuses an
// arena that is already pooled (see PolyPool), PermuteRow and PermuteAddRow
// refuse an index table that is not a permutation, and MulAccPackedRows
// refuses a packed row without the padding its loads read or at a width
// narrower than its modulus. The race pass is where every pooled, permuting
// and key-reading path runs anyway, so the checks cost nothing in the builds
// that are timed.
const contractChecks = true
