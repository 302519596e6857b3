package ring

import (
	"math/big"
	"testing"
)

func TestNewRingValidation(t *testing.T) {
	if _, err := NewRing(12, nil); err == nil {
		t.Error("expected error for empty prime chain")
	}
	if _, err := NewRing(0, []uint64{97}); err == nil {
		t.Error("expected error for logN=0")
	}
	ps := []uint64{1152921504606830593}
	if _, err := NewRing(12, append(ps, ps...)); err == nil {
		t.Error("expected error for duplicate primes")
	}
}

func TestRingAddSubNeg(t *testing.T) {
	r := testRing(t, 6, 36, 3)
	a := randPoly(r, 1)
	b := randPoly(r, 2)
	sum, diff, neg := r.NewPoly(), r.NewPoly(), r.NewPoly()
	r.Add(a, b, sum)
	r.Sub(sum, b, diff)
	if !diff.Equal(a) {
		t.Fatal("(a+b)-b != a")
	}
	r.Neg(a, neg)
	r.Add(a, neg, sum)
	zero := r.NewPoly()
	if !sum.Equal(zero) {
		t.Fatal("a + (-a) != 0")
	}
}

func TestMulCoeffsThenAdd(t *testing.T) {
	r := testRing(t, 5, 36, 2)
	a, b := randPoly(r, 4), randPoly(r, 5)
	acc := randPoly(r, 6)
	want := r.NewPoly()
	r.MulCoeffs(a, b, want)
	r.Add(want, acc, want)
	got := acc.Clone()
	r.MulCoeffsThenAdd(a, b, got)
	if !got.Equal(want) {
		t.Fatal("MulCoeffsThenAdd mismatch")
	}
}

func TestAtLevel(t *testing.T) {
	r := testRing(t, 5, 36, 4)
	r2 := r.AtLevel(1)
	if len(r2.Moduli) != 2 {
		t.Fatalf("AtLevel(1) has %d limbs, want 2", len(r2.Moduli))
	}
	wantProd := new(big.Int).Mul(
		new(big.Int).SetUint64(r.Moduli[0].Q),
		new(big.Int).SetUint64(r.Moduli[1].Q))
	if r2.modProd.Cmp(wantProd) != 0 {
		t.Error("AtLevel modulus product mismatch")
	}
	defer func() {
		if recover() == nil {
			t.Error("AtLevel out of range should panic")
		}
	}()
	r.AtLevel(99)
}

func TestBigintRoundTrip(t *testing.T) {
	r := testRing(t, 5, 36, 3)
	// Small centered values must survive the CRT round trip exactly.
	vals := make([]*big.Int, r.N)
	for j := range vals {
		vals[j] = big.NewInt(int64(j - r.N/2))
	}
	p := r.NewPoly()
	r.SetCoeffBigint(vals, p)
	back := make([]*big.Int, r.N)
	r.PolyToBigintCentered(p, back)
	for j := range vals {
		if vals[j].Cmp(back[j]) != 0 {
			t.Fatalf("coeff %d: got %s want %s", j, back[j], vals[j])
		}
	}
}

func TestPolyHelpers(t *testing.T) {
	r := testRing(t, 4, 36, 2)
	p := randPoly(r, 9)
	c := p.Clone()
	if !c.Equal(p) {
		t.Fatal("clone not equal")
	}
	c.Coeffs[0][0]++
	if c.Equal(p) {
		t.Fatal("clone aliases original")
	}
	tr := p.Truncated(1)
	if tr.Limbs() != 1 || tr.N() != r.N {
		t.Fatal("Truncated shape wrong")
	}
	p.Zero()
	if !p.Equal(r.NewPoly()) {
		t.Fatal("Zero did not clear")
	}
	var empty Poly
	if empty.N() != 0 || empty.Limbs() != 0 {
		t.Fatal("empty poly should have zero shape")
	}
	if p.Equal(Poly{}) {
		t.Fatal("shaped poly equal to empty poly")
	}
}

func TestCheckShapePanics(t *testing.T) {
	r := testRing(t, 4, 36, 2)
	bad := NewPoly(r.N, 1)
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch should panic")
		}
	}()
	r.Add(bad, bad, bad)
}

func TestSamplerDeterminism(t *testing.T) {
	r := testRing(t, 6, 36, 2)
	p1, p2 := r.NewPoly(), r.NewPoly()
	NewSampler(99).UniformPoly(r, p1)
	NewSampler(99).UniformPoly(r, p2)
	if !p1.Equal(p2) {
		t.Fatal("same seed must reproduce the same polynomial")
	}
	NewSampler(100).UniformPoly(r, p2)
	if p1.Equal(p2) {
		t.Fatal("different seeds should differ")
	}
}

func TestTernaryAndGaussianRanges(t *testing.T) {
	r := testRing(t, 8, 36, 2)
	s := NewSampler(7)
	p := r.NewPoly()
	signed := s.TernaryPoly(r, p)
	counts := map[int64]int{}
	for j, v := range signed {
		if v < -1 || v > 1 {
			t.Fatalf("ternary coeff %d out of range: %d", j, v)
		}
		counts[v]++
		// Check the RNS embedding of the signed value.
		for i, m := range r.Moduli {
			want := v
			got := int64(p.Coeffs[i][j])
			if got > int64(m.Q)/2 {
				got -= int64(m.Q)
			}
			if got != want {
				t.Fatalf("limb %d coeff %d: embedded %d want %d", i, j, got, want)
			}
		}
	}
	for _, v := range []int64{-1, 0, 1} {
		if counts[v] == 0 {
			t.Errorf("ternary sampler never produced %d over %d draws", v, r.N)
		}
	}

	g := r.NewPoly()
	s.GaussianPoly(r, 3.2, g)
	for i, m := range r.Moduli {
		for j := 0; j < r.N; j++ {
			v := int64(g.Coeffs[i][j])
			if v > int64(m.Q)/2 {
				v -= int64(m.Q)
			}
			if v < -20 || v > 20 { // 6*3.2 = 19.2
				t.Fatalf("gaussian coeff out of truncation bound: %d", v)
			}
		}
	}
}
