package ring

import (
	"slices"
	"testing"
)

// trialDivisionFactors is the reference distinctPrimeFactors replaced: trial
// division to √v.
func trialDivisionFactors(v uint64) []uint64 {
	var fs []uint64
	for p := uint64(2); p*p <= v; p++ {
		if v%p == 0 {
			fs = append(fs, p)
			for v%p == 0 {
				v /= p
			}
		}
	}
	if v > 1 {
		fs = append(fs, v)
	}
	return fs
}

// TestDistinctPrimeFactorsMatchTrialDivision pins the rho factorisation to
// trial division — same factors, hence the same primitive root and the same
// NTT tables — for every prime the parameter sets in use generate: the ring
// degrees 2^4..2^13 and 2^15 the tests, examples and benchmark run, DefaultConfig
// (36-bit scale, 50-bit q0 and P, 60-bit T), NewBootstrapContext (40-bit scale,
// 50-bit q0 and P) and the small fuzz chains (20- and 34-bit), each bit size up
// to the longest chain that uses it. It adds one 60-bit prime whose (q−1)/2N
// is itself prime, the worst case for trial division.
func TestDistinctPrimeFactorsMatchTrialDivision(t *testing.T) {
	counts := map[int]int{20: 2, 34: 2, 36: 17, 40: 25, 50: 4, 55: 3, 60: 2}
	var primes []uint64
	for _, logN := range []int{4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15} {
		for bitSize, count := range counts {
			ps, err := GenerateNTTPrimes(bitSize, logN, count)
			if err != nil {
				continue // no parameter set can ask for it either
			}
			primes = append(primes, ps...)
		}
	}
	// 2^60 − 995327: (q−1)/2^12 = 281474976710413 is prime.
	const hard = uint64(1152921504605851649)
	if !isPrime(hard) || !isPrime((hard-1)>>12) {
		t.Fatal("worst-case prime fixture is not what it claims")
	}
	primes = append(primes, hard)

	for _, q := range primes {
		got, want := distinctPrimeFactors(q-1), trialDivisionFactors(q-1)
		if !slices.Equal(got, want) {
			t.Fatalf("factors of %d−1: rho %v, trial division %v", q, got, want)
		}
		m := mustModulus(t, q)
		root, err := primitiveRoot(m)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceRoot(m, want); root != want {
			t.Fatalf("primitive root of %d: %d, want %d", q, root, want)
		}
	}
}

// referenceRoot is primitiveRoot over given factors.
func referenceRoot(m Modulus, factors []uint64) uint64 {
	for g := uint64(2); ; g++ {
		ok := true
		for _, f := range factors {
			if m.PowMod(g, (m.Q-1)/f) == 1 {
				ok = false
				break
			}
		}
		if ok {
			return g
		}
	}
}

// TestDistinctPrimeFactorsComposites covers the rho split on cofactors trial
// division below smallFactorBound cannot finish: squares, a product of two
// large primes, and one with a repeated large factor.
func TestDistinctPrimeFactorsComposites(t *testing.T) {
	const p, r = uint64(1_000_003), uint64(998_244_353)
	for _, c := range []struct {
		v    uint64
		want []uint64
	}{
		{p * p, []uint64{p}},
		{p * r, []uint64{p, r}},
		{1 << 40 * 3 * p, []uint64{2, 3, p}},
		{p * p * 1031, []uint64{1031, p}},
		{r * r * 2, []uint64{2, r}},
	} {
		if got := distinctPrimeFactors(c.v); !slices.Equal(got, c.want) {
			t.Errorf("factors(%d): %v, want %v", c.v, got, c.want)
		}
	}
}
