package ckks

import (
	"math"
	"math/rand"
	"testing"
)

// buildLT encodes a dense n x n matrix (n = slots) as its diagonals.
func denseDiags(m [][]complex128) map[int][]complex128 {
	n := len(m)
	out := map[int][]complex128{}
	for d := 0; d < n; d++ {
		diag := make([]complex128, n)
		nonzero := false
		for i := 0; i < n; i++ {
			diag[i] = m[i][(i+d)%n]
			if diag[i] != 0 {
				nonzero = true
			}
		}
		if nonzero {
			out[d] = diag
		}
	}
	return out
}

// ltKeys generates the evaluation keys a transform needs.
func ltKeys(t *testing.T, tc *testContext, lt *LinearTransform) *Evaluator {
	t.Helper()
	keys, err := tc.kgen.GenEvaluationKeySet(tc.sk, []KeySwitchMethod{Hybrid}, lt.Rotations(), false)
	if err != nil {
		t.Fatalf("keys: %v", err)
	}
	// Relin key needed by nothing here, but evaluator requires the set.
	ev, err := NewEvaluatorOptions(tc.params, keys, EvaluatorOptions{})
	if err != nil {
		t.Fatalf("NewEvaluatorOptions: %v", err)
	}
	return ev
}

func applyMatrix(m [][]complex128, v []complex128) []complex128 {
	n := len(m)
	out := make([]complex128, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			out[i] += m[i][j] * v[j]
		}
	}
	return out
}

func TestLinearTransformDense(t *testing.T) {
	tc := newTestContext(t)
	n := tc.params.Slots()
	rng := rand.New(rand.NewSource(31))

	// A banded matrix (8 diagonals) over the full slot width keeps the
	// reference computation cheap while exercising BSGS with giants.
	band := 8
	m := make([][]complex128, n)
	for i := range m {
		m[i] = make([]complex128, n)
		for d := 0; d < band; d++ {
			m[i][(i+d)%n] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
		}
	}
	lt, err := NewLinearTransform(tc.enc, denseDiags(m), tc.params.MaxLevel(), tc.params.Scale(), 4)
	if err != nil {
		t.Fatalf("NewLinearTransform: %v", err)
	}
	ev := ltKeys(t, tc, lt)

	v := randomValues(n, 32)
	pt, _ := tc.enc.Encode(v)
	ct, _ := tc.encr.Encrypt(pt)

	out, err := ev.LinearTransform(ct, lt)
	if err != nil {
		t.Fatalf("LinearTransform: %v", err)
	}
	out, err = ev.Rescale(out)
	if err != nil {
		t.Fatalf("Rescale: %v", err)
	}
	got := tc.enc.Decode(tc.decr.Decrypt(out))
	want := applyMatrix(m, v)
	if e := maxErr(got, want); e > 5e-3 {
		t.Fatalf("banded linear transform error %g", e)
	}
}

func TestLinearTransformIdentity(t *testing.T) {
	tc := newTestContext(t)
	n := tc.params.Slots()
	id := make([]complex128, n)
	for i := range id {
		id[i] = 1
	}
	lt, err := NewLinearTransform(tc.enc, map[int][]complex128{0: id}, tc.params.MaxLevel(), tc.params.Scale(), 0)
	if err != nil {
		t.Fatalf("NewLinearTransform: %v", err)
	}
	ev := ltKeys(t, tc, lt)
	v := randomValues(n, 33)
	pt, _ := tc.enc.Encode(v)
	ct, _ := tc.encr.Encrypt(pt)
	out, err := ev.LinearTransform(ct, lt)
	if err != nil {
		t.Fatalf("LinearTransform: %v", err)
	}
	out, _ = ev.Rescale(out)
	if e := maxErr(tc.enc.Decode(tc.decr.Decrypt(out)), v); e > 1e-3 {
		t.Fatalf("identity transform error %g", e)
	}
}

func TestLinearTransformValidation(t *testing.T) {
	tc := newTestContext(t)
	if _, err := NewLinearTransform(tc.enc, nil, 1, 1, 0); err == nil {
		t.Error("empty diagonal set accepted")
	}
	n := tc.params.Slots()
	if _, err := NewLinearTransform(tc.enc, map[int][]complex128{n: make([]complex128, n)}, 1, tc.params.Scale(), 0); err == nil {
		t.Error("out-of-range diagonal accepted")
	}
	if _, err := NewLinearTransform(tc.enc, map[int][]complex128{0: make([]complex128, 3)}, 1, tc.params.Scale(), 0); err == nil {
		t.Error("short diagonal accepted")
	}
}

func TestLinearTransformRotations(t *testing.T) {
	tc := newTestContext(t)
	n := tc.params.Slots()
	diags := map[int][]complex128{}
	for _, d := range []int{0, 1, 3, 9} {
		diags[d] = make([]complex128, n)
	}
	lt, err := NewLinearTransform(tc.enc, diags, 2, tc.params.Scale(), 4)
	if err != nil {
		t.Fatal(err)
	}
	rots := lt.Rotations()
	want := map[int]bool{1: true, 3: true, 8: true} // babies {1,3}, giant {8}
	if len(rots) != len(want) {
		t.Fatalf("Rotations() = %v", rots)
	}
	for _, r := range rots {
		if !want[r] {
			t.Fatalf("unexpected rotation %d in %v", r, rots)
		}
	}
}

func TestEvaluatePolySmall(t *testing.T) {
	tc := newTestContext(t)
	n := tc.params.Slots()
	// p(x) = 0.5 + x - 0.25 x^2 + 0.125 x^3 on values in [-1, 1].
	p := Polynomial{Coeffs: []float64{0.5, 1, -0.25, 0.125}}
	v := randomValues(n, 34)
	pt, _ := tc.enc.Encode(v)
	ct, _ := tc.encr.Encrypt(pt)
	out, err := tc.eval.EvaluatePoly(ct, p)
	if err != nil {
		t.Fatalf("EvaluatePoly: %v", err)
	}
	got := tc.enc.Decode(tc.decr.Decrypt(out))
	want := make([]complex128, n)
	for i, x := range v {
		want[i] = 0.5 + x - 0.25*x*x + 0.125*x*x*x
	}
	if e := maxErr(got, want); e > 5e-3 {
		t.Fatalf("degree-3 polynomial error %g", e)
	}
}

func TestEvaluatePolyDegree7DepthBudget(t *testing.T) {
	tc := newTestContext(t)
	n := tc.params.Slots()
	coeffs := []float64{0.1, 0.2, -0.3, 0.05, 0.04, -0.02, 0.01, 0.005}
	p := Polynomial{Coeffs: coeffs}
	if p.Degree() != 7 || p.Depth() != 3 {
		t.Fatalf("degree/depth bookkeeping wrong: %d/%d", p.Degree(), p.Depth())
	}
	v := randomValues(n, 35)
	pt, _ := tc.enc.Encode(v)
	ct, _ := tc.encr.Encrypt(pt)
	out, err := tc.eval.EvaluatePoly(ct, p)
	if err != nil {
		t.Fatalf("EvaluatePoly deg 7: %v", err)
	}
	if used := ct.Level - out.Level; used > 4 {
		t.Errorf("BSGS should use ~log2(8)+1 levels, used %d", used)
	}
	got := tc.enc.Decode(tc.decr.Decrypt(out))
	want := make([]complex128, n)
	for i, x := range v {
		acc := complex(0, 0)
		for j := len(coeffs) - 1; j >= 0; j-- {
			acc = acc*x + complex(coeffs[j], 0)
		}
		want[i] = acc
	}
	if e := maxErr(got, want); e > 1e-2 {
		t.Fatalf("degree-7 polynomial error %g", e)
	}
}

func TestEvaluatePolyConstantAndErrors(t *testing.T) {
	tc := newTestContext(t)
	v := randomValues(tc.params.Slots(), 36)
	pt, _ := tc.enc.Encode(v)
	ct, _ := tc.encr.Encrypt(pt)

	out, err := tc.eval.EvaluatePoly(ct, Polynomial{Coeffs: []float64{0.75}})
	if err != nil {
		t.Fatalf("constant polynomial: %v", err)
	}
	got := tc.enc.Decode(tc.decr.Decrypt(out))
	for i := range got {
		if math.Abs(real(got[i])-0.75) > 1e-3 {
			t.Fatalf("constant poly slot %d = %v", i, got[i])
		}
	}
	if _, err := tc.eval.EvaluatePoly(ct, Polynomial{}); err == nil {
		t.Error("empty polynomial accepted")
	}
}
