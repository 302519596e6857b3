package ring

import (
	"math/big"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustModulus(t testing.TB, q uint64) Modulus {
	t.Helper()
	m, err := NewModulus(q)
	if err != nil {
		t.Fatalf("NewModulus(%d): %v", q, err)
	}
	return m
}

func somePrimes(t *testing.T, bitSize, logN, count int) []uint64 {
	t.Helper()
	ps, err := GenerateNTTPrimes(bitSize, logN, count)
	if err != nil {
		t.Fatalf("GenerateNTTPrimes(%d,%d,%d): %v", bitSize, logN, count, err)
	}
	return ps
}

func TestNewModulusRejectsBadInputs(t *testing.T) {
	if _, err := NewModulus(1); err == nil {
		t.Error("expected error for modulus 1")
	}
	if _, err := NewModulus(1 << 62); err == nil {
		t.Error("expected error for 63-bit modulus")
	}
}

func TestGenerateNTTPrimesProperties(t *testing.T) {
	for _, tc := range []struct{ bitSize, logN, count int }{
		{36, 12, 8},
		{60, 12, 4},
		{40, 10, 6},
		{28, 13, 3},
	} {
		ps := somePrimes(t, tc.bitSize, tc.logN, tc.count)
		if len(ps) != tc.count {
			t.Fatalf("wanted %d primes, got %d", tc.count, len(ps))
		}
		seen := map[uint64]bool{}
		m := uint64(2) << uint(tc.logN)
		for _, p := range ps {
			if seen[p] {
				t.Errorf("duplicate prime %d", p)
			}
			seen[p] = true
			if !isPrime(p) {
				t.Errorf("%d is not prime", p)
			}
			if p%m != 1 {
				t.Errorf("%d is not 1 mod 2N", p)
			}
			if got := bits.Len64(p); got < tc.bitSize-1 || got > tc.bitSize+1 {
				t.Errorf("prime %d has %d bits, want about %d", p, got, tc.bitSize)
			}
		}
	}
}

func TestGenerateNTTPrimesErrors(t *testing.T) {
	if _, err := GenerateNTTPrimes(2, 12, 1); err == nil {
		t.Error("expected error for tiny bit size")
	}
	if _, err := GenerateNTTPrimes(64, 12, 1); err == nil {
		t.Error("expected error for oversized bit size")
	}
	if _, err := GenerateNTTPrimes(36, 12, 0); err == nil {
		t.Error("expected error for zero count")
	}
}

func TestModularArithmeticAgainstBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, bitSize := range []int{28, 36, 50, 60} {
		q := somePrimes(t, bitSize, 10, 1)[0]
		m := mustModulus(t, q)
		qB := new(big.Int).SetUint64(q)
		for i := 0; i < 500; i++ {
			a := uint64(rng.Int63n(int64(q)))
			b := uint64(rng.Int63n(int64(q)))
			want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
			want.Mod(want, qB)
			if got := m.MulMod(a, b); got != want.Uint64() {
				t.Fatalf("MulMod(%d,%d) mod %d = %d, want %s", a, b, q, got, want)
			}
			hi, lo := bits.Mul64(a, b)
			if got := m.Reduce(hi, lo); got != want.Uint64() {
				t.Fatalf("Reduce(%d,%d) mod %d = %d, want %s", hi, lo, q, got, want)
			}
			sum := (a + b) % q
			if got := m.AddMod(a, b); got != sum {
				t.Fatalf("AddMod(%d,%d) = %d, want %d", a, b, got, sum)
			}
			var diff uint64
			if a >= b {
				diff = a - b
			} else {
				diff = a + q - b
			}
			if got := m.SubMod(a, b); got != diff {
				t.Fatalf("SubMod(%d,%d) = %d, want %d", a, b, got, diff)
			}
		}
	}
}

func TestMulModShoupMatchesMulMod(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, bitSize := range []int{36, 60} {
		q := somePrimes(t, bitSize, 11, 1)[0]
		m := mustModulus(t, q)
		for i := 0; i < 1000; i++ {
			x := uint64(rng.Int63n(int64(q)))
			w := uint64(rng.Int63n(int64(q)))
			ws := m.ShoupPrecomp(w)
			if got, want := m.MulModShoup(x, w, ws), m.MulMod(x, w); got != want {
				t.Fatalf("MulModShoup(%d,%d) = %d, want %d (q=%d)", x, w, got, want, q)
			}
		}
	}
}

func TestPowAndInv(t *testing.T) {
	q := somePrimes(t, 36, 10, 1)[0]
	m := mustModulus(t, q)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		a := uint64(rng.Int63n(int64(q)-1)) + 1
		inv := m.InvMod(a)
		if m.MulMod(a, inv) != 1 {
			t.Fatalf("InvMod(%d) incorrect for q=%d", a, q)
		}
	}
	if m.PowMod(0, 0) != 1 {
		t.Error("PowMod(0,0) should be 1 by convention")
	}
	if m.PowMod(7, 1) != 7 {
		t.Error("PowMod(7,1) should be 7")
	}
}

func TestNegMod(t *testing.T) {
	q := somePrimes(t, 36, 10, 1)[0]
	m := mustModulus(t, q)
	if m.NegMod(0) != 0 {
		t.Error("NegMod(0) should be 0")
	}
	if got := m.AddMod(m.NegMod(123), 123); got != 0 {
		t.Errorf("x + (-x) = %d, want 0", got)
	}
}

// Property: Reduce is the canonical representative for arbitrary 128-bit
// inputs with hi < q.
func TestReduceProperty(t *testing.T) {
	q := somePrimes(t, 60, 10, 1)[0]
	m := mustModulus(t, q)
	qB := new(big.Int).SetUint64(q)
	f := func(hi, lo uint64) bool {
		hi %= q
		x := new(big.Int).SetUint64(hi)
		x.Lsh(x, 64)
		x.Add(x, new(big.Int).SetUint64(lo))
		x.Mod(x, qB)
		return m.Reduce(hi, lo) == x.Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDistinctPrimeFactors(t *testing.T) {
	got := distinctPrimeFactors(360) // 2^3 * 3^2 * 5
	want := []uint64{2, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("factors(360) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("factors(360) = %v, want %v", got, want)
		}
	}
	if fs := distinctPrimeFactors(97); len(fs) != 1 || fs[0] != 97 {
		t.Errorf("factors(97) = %v, want [97]", fs)
	}
}
