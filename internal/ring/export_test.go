package ring

import "testing"

// What the external test package (ring_test: the differential suite, which
// shares kerneltest.EachPath with the packages built on ring) needs of the
// internals, and the helpers it shares with the in-package tests.

const (
	AsmMinVec     = asmMinVec
	MAC52MaxTerms = mac52MaxTerms
)

var MustModulus = mustModulus

func (m Modulus) Use52(n int) bool                        { return m.use52(n) }
func (m Modulus) MAC52Fits(xBound uint64, terms int) bool { return m.mac52Fits(xBound, terms) }

// Kernel is the path this table's transforms take: the per-modulus half of
// the dispatch.
func (t *NTTTable) Kernel() Path { return t.kernel(t.N) }

// FirstPrime returns the first NTT prime GenerateNTTPrimes finds at a width.
func FirstPrime(t testing.TB, bits, logN int) Modulus {
	t.Helper()
	primes, err := GenerateNTTPrimes(bits, logN, 1)
	if err != nil {
		t.Fatalf("GenerateNTTPrimes(%d, %d): %v", bits, logN, err)
	}
	return mustModulus(t, primes[0])
}

// Lane52Edge returns the largest NTT prime (q ≡ 1 mod 2N) with 2q <= 2^52 and
// the smallest one above it.
func Lane52Edge(t testing.TB, logN int) (in, out Modulus) {
	t.Helper()
	step := uint64(2) << uint(logN)
	hi := lane52Bound/2 + 1 // 2^51 + 1 ≡ 1 mod 2N: the first candidate past the bound
	lo := hi - step
	for !isPrime(lo) {
		lo -= step
	}
	for !isPrime(hi) {
		hi += step
	}
	return mustModulus(t, lo), mustModulus(t, hi)
}
