package ring

import "fmt"

// GaloisGen is the generator of the rotation subgroup of Gal(Q(ζ_2N)/Q) used
// by CKKS: the automorphism X -> X^(5^r) cyclically rotates the message slots
// by r positions. The conjugation automorphism is X -> X^(2N-1).
const GaloisGen uint64 = 5

// GaloisElementForRotation returns 5^r mod 2N (r may be negative).
func GaloisElementForRotation(logN, r int) uint64 {
	m := uint64(2) << uint(logN)
	n2 := int(m >> 2) // N/2 slots; rotations are modulo the slot count
	r %= n2
	if r < 0 {
		r += n2
	}
	g := uint64(1)
	for i := 0; i < r; i++ {
		g = (g * GaloisGen) % m
	}
	return g
}

// GaloisElementForConjugation returns 2N-1, the Galois element of complex
// conjugation on the slots.
func GaloisElementForConjugation(logN int) uint64 {
	return (uint64(2) << uint(logN)) - 1
}

// AutomorphismCoeff applies X -> X^galEl to a polynomial in coefficient form:
// coefficient i moves to position i*galEl mod 2N, negated when the exponent
// wraps past N (negacyclic ring).
func (r *Ring) AutomorphismCoeff(in, out Poly, galEl uint64) {
	r.checkShape(in, out)
	// INVARIANT: Galois elements are generated by GaloisElementFor*, which only produces odd values.
	// A panic here is a repo-internal bug, never a reaction to caller input —
	// malformed inputs are rejected with typed errors at the public boundary.
	if galEl&1 == 0 {
		panic(fmt.Sprintf("ring: galois element %d must be odd", galEl))
	}
	n := uint64(r.N)
	mask := 2*n - 1
	for l, m := range r.Moduli {
		il, ol := in.Coeffs[l], out.Coeffs[l]
		for i := uint64(0); i < n; i++ {
			e := (i * galEl) & mask
			if e < n {
				ol[e] = il[i]
			} else {
				ol[e-n] = m.NegMod(il[i])
			}
		}
	}
}

// AutomorphismNTTIndex precomputes the permutation applied by the Galois
// automorphism X -> X^galEl directly in the NTT domain (bit-reversed slot
// ordering): out[j] = in[index[j]].
func AutomorphismNTTIndex(n int, logN int, galEl uint64) []int {
	mask := uint64(2*n) - 1
	idx := make([]int, n)
	for j := 0; j < n; j++ {
		// Array slot j holds the evaluation at ψ^(2*brv(j)+1); the
		// automorphism pulls the evaluation at exponent e*galEl.
		e := 2*bitReverse(uint64(j), logN) + 1
		e2 := (e * galEl) & mask
		idx[j] = int(bitReverse((e2-1)>>1, logN))
	}
	return idx
}

// AutomorphismNTT applies the automorphism to a polynomial in NTT form using
// a precomputed index table from AutomorphismNTTIndex.
func (r *Ring) AutomorphismNTT(in, out Poly, index []int) {
	r.checkShape(in, out)
	for l := range r.Moduli {
		PermuteRow(out.Coeffs[l], in.Coeffs[l], index)
	}
}

// AutomorphismNTTInverse applies the inverse of the automorphism whose index
// table is index: out[index[j]] = in[j], so AutomorphismNTT of out is in.
func (r *Ring) AutomorphismNTTInverse(in, out Poly, index []int) {
	r.checkShape(in, out)
	for l := range r.Moduli {
		il, ol := in.Coeffs[l], out.Coeffs[l]
		for j, k := range index {
			ol[k] = il[j]
		}
	}
}

// PermuteRow sets dst[j] = src[index[j]]: one row of AutomorphismNTT.
//
// The contract of PermuteRow and PermuteAddRow: index (a table from
// AutomorphismNTTIndex) is a permutation of [0, n), n = len(dst), and
// PermuteAddRow's q is below 2^62 with both operands below q. The avx512ifma
// path gathers without a bounds check, so a table outside [0, n) reads
// memory it does not own there, where the Go loop panics; the race build
// checks the table (contractChecks).
func PermuteRow(dst, src []uint64, index []int) {
	n := len(dst)
	src, index = src[:n], index[:n]
	if contractChecks {
		checkPermutation(index)
	}
	if usePermute512(n) {
		permuteASM(dst, src, index)
		return
	}
	for j, k := range index {
		dst[j] = src[k]
	}
}

// PermuteAddRow sets dst[j] = dst[j] + src[index[j]] mod q: one row of an
// automorphism added to dst, under PermuteRow's contract. The Go loop's
// reduction is branch-free (a permuted sum's carry is a coin flip): the sum
// minus q, plus q back where that went negative, which reads the sign bit and
// so needs q < 2^62.
func (m Modulus) PermuteAddRow(dst, src []uint64, index []int) {
	n := len(dst)
	src, index = src[:n], index[:n]
	if contractChecks {
		checkPermutation(index)
	}
	if usePermute512(n) {
		permuteAddASM(m, dst, src, index)
		return
	}
	q := m.Q
	for j, k := range index {
		s := dst[j] + src[k] - q
		dst[j] = s + q&uint64(int64(s)>>63)
	}
}

// checkPermutation panics unless index is a permutation of [0, len(index)).
func checkPermutation(index []int) {
	seen := make([]bool, len(index))
	for j, k := range index {
		if k < 0 || k >= len(index) || seen[k] {
			panic(fmt.Sprintf("ring: index[%d] = %d: the table is not a permutation of [0, %d)", j, k, len(index)))
		}
		seen[k] = true
	}
}

// usePermute512 reports whether a length-n permutation runs on the AVX-512
// gathers, which the 52-bit path's hosts have.
func usePermute512(n int) bool {
	return kernelPath == PathAVX512IFMA && n >= asmMinVec && n%16 == 0
}
