package ring

import (
	"math/big"
	"math/rand"
	"testing"
)

func testRing(t *testing.T, logN, bitSize, limbs int) *Ring {
	t.Helper()
	ps := somePrimes(t, bitSize, logN, limbs)
	r, err := NewRing(logN, ps)
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	return r
}

func randPoly(r *Ring, seed int64) Poly {
	s := NewSampler(seed)
	p := r.NewPoly()
	s.UniformPoly(r, p)
	return p
}

func TestNTTRoundTrip(t *testing.T) {
	for _, logN := range []int{4, 8, 11} {
		for _, bitSize := range []int{36, 60} {
			r := testRing(t, logN, bitSize, 3)
			p := randPoly(r, 42)
			orig := p.Clone()
			r.NTT(p)
			if p.Equal(orig) {
				t.Fatalf("logN=%d: NTT left the polynomial unchanged", logN)
			}
			r.INTT(p)
			if !p.Equal(orig) {
				t.Fatalf("logN=%d bits=%d: NTT/INTT round trip failed", logN, bitSize)
			}
		}
	}
}

// schoolbookNegacyclic multiplies two polynomials modulo X^N+1 and q using
// big integers; the reference for the NTT-based product.
func schoolbookNegacyclic(a, b []uint64, q uint64) []uint64 {
	n := len(a)
	qB := new(big.Int).SetUint64(q)
	acc := make([]*big.Int, n)
	for i := range acc {
		acc[i] = new(big.Int)
	}
	tmp := new(big.Int)
	for i := 0; i < n; i++ {
		if a[i] == 0 {
			continue
		}
		ai := new(big.Int).SetUint64(a[i])
		for j := 0; j < n; j++ {
			tmp.SetUint64(b[j])
			tmp.Mul(tmp, ai)
			k := i + j
			if k < n {
				acc[k].Add(acc[k], tmp)
			} else {
				acc[k-n].Sub(acc[k-n], tmp)
			}
		}
	}
	out := make([]uint64, n)
	for i := range out {
		acc[i].Mod(acc[i], qB)
		out[i] = acc[i].Uint64()
	}
	return out
}

func TestNTTMultiplicationMatchesSchoolbook(t *testing.T) {
	for _, bitSize := range []int{36, 60} {
		r := testRing(t, 6, bitSize, 2)
		a := randPoly(r, 7)
		b := randPoly(r, 8)
		want := make([][]uint64, len(r.Moduli))
		for i, m := range r.Moduli {
			want[i] = schoolbookNegacyclic(a.Coeffs[i], b.Coeffs[i], m.Q)
		}
		r.NTT(a)
		r.NTT(b)
		c := r.NewPoly()
		r.MulCoeffs(a, b, c)
		r.INTT(c)
		for i := range r.Moduli {
			for j := 0; j < r.N; j++ {
				if c.Coeffs[i][j] != want[i][j] {
					t.Fatalf("bits=%d limb %d coeff %d: got %d want %d", bitSize, i, j, c.Coeffs[i][j], want[i][j])
				}
			}
		}
	}
}

func TestNTTLinearity(t *testing.T) {
	r := testRing(t, 8, 36, 2)
	a := randPoly(r, 1)
	b := randPoly(r, 2)
	sum := r.NewPoly()
	r.Add(a, b, sum)
	r.NTT(sum)

	r.NTT(a)
	r.NTT(b)
	sum2 := r.NewPoly()
	r.Add(a, b, sum2)
	if !sum.Equal(sum2) {
		t.Fatal("NTT(a+b) != NTT(a)+NTT(b)")
	}
}

func TestNTTConstantPolynomial(t *testing.T) {
	// NTT of the constant polynomial c is the all-c vector (evaluations of a
	// constant are the constant).
	r := testRing(t, 5, 36, 1)
	p := r.NewPoly()
	const c = 12345
	p.Coeffs[0][0] = c
	r.NTT(p)
	for j := 0; j < r.N; j++ {
		if p.Coeffs[0][j] != c {
			t.Fatalf("NTT(const)[%d] = %d, want %d", j, p.Coeffs[0][j], c)
		}
	}
}

func TestBitReverse(t *testing.T) {
	if bitReverse(0b001, 3) != 0b100 {
		t.Error("bitReverse(1,3) != 4")
	}
	if bitReverse(0b110, 3) != 0b011 {
		t.Error("bitReverse(6,3) != 3")
	}
	for v := uint64(0); v < 64; v++ {
		if bitReverse(bitReverse(v, 6), 6) != v {
			t.Fatalf("bitReverse not involutive at %d", v)
		}
	}
}

func TestNewNTTTableRejectsIncompatibleModulus(t *testing.T) {
	// 17 is prime but 17-1=16 is not divisible by 2*32.
	m := mustModulus(t, 17)
	if _, err := NewNTTTable(m, 5); err == nil {
		t.Error("expected error for incompatible modulus/degree")
	}
}

func TestAutomorphismCoeffVsNTT(t *testing.T) {
	r := testRing(t, 7, 36, 2)
	rng := rand.New(rand.NewSource(11))
	for _, galEl := range []uint64{5, 25, GaloisElementForConjugation(7), GaloisElementForRotation(7, 3), GaloisElementForRotation(7, -2)} {
		p := r.NewPoly()
		for i := range r.Moduli {
			for j := range p.Coeffs[i] {
				p.Coeffs[i][j] = uint64(rng.Int63n(int64(r.Moduli[i].Q)))
			}
		}
		// Path 1: automorphism in coefficient domain, then NTT.
		want := r.NewPoly()
		r.AutomorphismCoeff(p, want, galEl)
		r.NTT(want)
		// Path 2: NTT, then permutation in the evaluation domain.
		got := r.NewPoly()
		pn := p.Clone()
		r.NTT(pn)
		idx := AutomorphismNTTIndex(r.N, r.LogN, galEl)
		r.AutomorphismNTT(pn, got, idx)
		if !got.Equal(want) {
			t.Fatalf("galEl=%d: NTT-domain automorphism disagrees with coefficient-domain", galEl)
		}
		// The inverse undoes it, and the accumulating form adds it.
		back := r.NewPoly()
		r.AutomorphismNTTInverse(got, back, idx)
		if !back.Equal(pn) {
			t.Fatalf("galEl=%d: AutomorphismNTTInverse does not undo AutomorphismNTT", galEl)
		}
		sum, wantSum := pn.Clone(), r.NewPoly()
		for l, m := range r.Moduli {
			m.PermuteAddRow(sum.Coeffs[l], pn.Coeffs[l], idx)
		}
		r.Add(pn, got, wantSum)
		if !sum.Equal(wantSum) {
			t.Fatalf("galEl=%d: PermuteAddRow differs from AutomorphismNTT then Add", galEl)
		}
	}
}

func TestGaloisElements(t *testing.T) {
	logN := 10
	m := uint64(2) << uint(logN)
	if g := GaloisElementForRotation(logN, 0); g != 1 {
		t.Errorf("rotation by 0 should be identity, got %d", g)
	}
	g1 := GaloisElementForRotation(logN, 1)
	if g1 != 5 {
		t.Errorf("rotation by 1 should be 5, got %d", g1)
	}
	// rot(r) * rot(-r) == identity in the group.
	gp := GaloisElementForRotation(logN, 7)
	gn := GaloisElementForRotation(logN, -7)
	if (gp*gn)%m != 1 {
		t.Errorf("rot(7)*rot(-7) = %d mod %d, want 1", (gp*gn)%m, m)
	}
	if gc := GaloisElementForConjugation(logN); gc != m-1 {
		t.Errorf("conjugation element = %d, want %d", gc, m-1)
	}
}
