package ring

import (
	"fmt"
	"math/big"
	"math/bits"
	"slices"
)

// GenerateNTTPrimes returns count distinct primes of the requested bit size
// that are congruent to 1 mod 2N, i.e. primes for which the negacyclic
// NTT of degree N exists. Candidates are explored outward from 2^bitSize,
// alternating below and above, so the generated chain stays as close to the
// nominal word size as possible (CKKS rescaling precision depends on the
// primes being close to the scale).
func GenerateNTTPrimes(bitSize, logN, count int) ([]uint64, error) {
	if bitSize < 3 || bitSize > MaxModulusBits {
		return nil, fmt.Errorf("ring: prime bit size %d out of range [3,%d]", bitSize, MaxModulusBits)
	}
	if count <= 0 {
		return nil, fmt.Errorf("ring: prime count %d must be positive", count)
	}
	m := uint64(2) << uint(logN) // 2N
	center := uint64(1) << uint(bitSize)

	// Align the two scan cursors on values ≡ 1 mod 2N around 2^bitSize.
	lo := center - (center % m) + 1 // ≡ 1 mod m, just above a multiple below center
	hi := lo + m

	primes := make([]uint64, 0, count)
	lower, upper := uint64(1)<<uint(bitSize-1), uint64(1)<<uint(bitSize+1)
	for len(primes) < count {
		progressed := false
		if hi < upper {
			if isPrime(hi) {
				primes = append(primes, hi)
			}
			hi += m
			progressed = true
		}
		if len(primes) < count && lo > lower && lo > m {
			if isPrime(lo) {
				primes = append(primes, lo)
			}
			lo -= m
			progressed = true
		}
		if !progressed {
			return nil, fmt.Errorf("ring: exhausted %d-bit candidates for logN=%d after %d primes", bitSize, logN, len(primes))
		}
	}
	return primes, nil
}

// isPrime reports whether v is prime. math/big's ProbablyPrime with 20 rounds
// is deterministic for all 64-bit inputs.
func isPrime(v uint64) bool {
	return new(big.Int).SetUint64(v).ProbablyPrime(20)
}

// primitiveRoot returns a generator of the multiplicative group Z_q^*.
// q must be prime.
func primitiveRoot(m Modulus) (uint64, error) {
	q := m.Q
	// Factor q-1.
	factors := distinctPrimeFactors(q - 1)
	for g := uint64(2); g < q; g++ {
		ok := true
		for _, f := range factors {
			if m.PowMod(g, (q-1)/f) == 1 {
				ok = false
				break
			}
		}
		if ok {
			return g, nil
		}
	}
	return 0, fmt.Errorf("ring: no primitive root found for %d", q)
}

// smallFactorBound is where distinctPrimeFactors stops trial division: a
// cofactor left with no factor below it is either prime or split by rho.
const smallFactorBound = 1 << 10

// distinctPrimeFactors returns the distinct prime factors of v in ascending
// order. Factors below smallFactorBound — the powers of two the 2N congruence
// puts in q−1 among them — are divided out by trial division. What remains
// is split by Brent's variant of Pollard's rho, whose cost grows with the
// fourth root of the cofactor: trial division to √v alone costs ~2^24
// divisions for a 60-bit q whose (q−1)/2N is prime.
func distinctPrimeFactors(v uint64) []uint64 {
	var fs []uint64
	for p := uint64(2); p < smallFactorBound && p*p <= v; p++ {
		if v%p == 0 {
			fs = append(fs, p)
			for v%p == 0 {
				v /= p
			}
		}
	}
	fs = appendLargeFactors(fs, v)
	slices.Sort(fs)
	return slices.Compact(fs)
}

// appendLargeFactors appends the prime factors of v, which has none below
// smallFactorBound, with repeats.
func appendLargeFactors(fs []uint64, v uint64) []uint64 {
	switch {
	case v == 1:
		return fs
	case v < smallFactorBound*smallFactorBound || isPrime(v):
		return append(fs, v)
	}
	d := brentRho(v)
	return appendLargeFactors(appendLargeFactors(fs, d), v/d)
}

// brentRho returns a non-trivial factor of the odd composite n: Brent's cycle
// search over x ↦ x² + c mod n, with the gcd taken once per batch of 128
// steps. The start point and the increments c = 1, 2, ... are fixed, so the
// factor found is deterministic.
func brentRho(n uint64) uint64 {
	mulMod := func(a, b uint64) uint64 {
		hi, lo := bits.Mul64(a, b)
		return bits.Rem64(hi, lo, n)
	}
	absDiff := func(a, b uint64) uint64 {
		if a > b {
			return a - b
		}
		return b - a
	}
	const batch = 128
	for c := uint64(1); ; c++ {
		f := func(x uint64) uint64 {
			s, carry := bits.Add64(mulMod(x, x), c, 0)
			if carry != 0 || s >= n {
				s -= n
			}
			return s
		}
		x, y, ys, q, g := uint64(0), uint64(2), uint64(0), uint64(1), uint64(1)
		for r := uint64(1); g == 1; r *= 2 {
			x = y
			for i := uint64(0); i < r; i++ {
				y = f(y)
			}
			for k := uint64(0); k < r && g == 1; k += batch {
				ys = y
				for i := uint64(0); i < min(batch, r-k); i++ {
					y = f(y)
					q = mulMod(q, absDiff(x, y))
				}
				g = gcd(q, n)
			}
		}
		if g == n {
			// The batch overshot: replay it one step at a time.
			for g = 1; g == 1; {
				ys = f(ys)
				g = gcd(absDiff(x, ys), n)
			}
		}
		if g != n {
			return g
		}
	}
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
