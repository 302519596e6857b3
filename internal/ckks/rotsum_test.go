package ckks

import (
	"context"
	"math/cmplx"
	"testing"

	"github.com/fastfhe/fast/internal/obs"
)

// observedEvaluator is an evaluator over the shared test keys whose
// key-switch phase histograms the test can read.
func observedEvaluator(t *testing.T, tc *testContext) (*Evaluator, *obs.Observer) {
	t.Helper()
	ob := obs.New()
	ev, err := NewEvaluatorOptions(tc.params, tc.keys, EvaluatorOptions{Observer: ob})
	if err != nil {
		t.Fatal(err)
	}
	return ev, ob
}

// phaseCounts reads how many ModUps, KeyMults and ModDowns m has run.
func phaseCounts(ob *obs.Observer, m KeySwitchMethod) (modUp, keyMult, modDown uint64) {
	prefix := "ckks.keyswitch." + m.String()
	reg := ob.Reg()
	return reg.Histogram(prefix + ".modup_ns").Count(), reg.Histogram(prefix + ".keymult_ns").Count(),
		reg.Histogram(prefix + ".moddown_ns").Count()
}

// rotatedSum is the plaintext Σ_r rot(a, r).
func rotatedSum(a []complex128, rots []int) []complex128 {
	n := len(a)
	want := make([]complex128, n)
	for _, r := range rots {
		for i := range want {
			want[i] += a[((i+r)%n+n)%n]
		}
	}
	return want
}

func meanErr(got, want []complex128) float64 {
	sum := 0.0
	for i := range want {
		sum += cmplx.Abs(got[i] - want[i])
	}
	return sum / float64(len(want))
}

// An amount listed twice is one key switch: RotateHoisted({1, 1}) runs one
// KeyMult and one ModDown pair, and returns what RotateHoisted({1}) does.
func TestRotateHoistedKeySwitchesADuplicateOnce(t *testing.T) {
	tc := newTestContext(t)
	ev, ob := observedEvaluator(t, tc)
	ct, err := tc.encr.Encrypt(mustEncode(t, tc, randomValues(tc.params.Slots(), 90)))
	if err != nil {
		t.Fatal(err)
	}
	twice, err := ev.RotateHoistedWith(ct, []int{1, 1}, Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	if up, km, down := phaseCounts(ob, Hybrid); up != 1 || km != 1 || down != 1 {
		t.Fatalf("RotateHoisted({1, 1}) ran %d ModUp, %d KeyMult, %d ModDown; want 1 each", up, km, down)
	}
	once, err := ev.RotateHoistedWith(ct, []int{1}, Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	if len(twice) != 1 || !twice[1].C0.Equal(once[1].C0) || !twice[1].C1.Equal(once[1].C1) {
		t.Fatal("RotateHoisted({1, 1}) differs from RotateHoisted({1})")
	}
}

// A rotate-and-sum decrypts to the plaintext sum of the rotations — rotation
// 0 adds the input itself and a repeated amount counts once per occurrence —
// and, rounded once instead of h times, at least as close as the hoisted
// rotations added up.
func TestRotateSumMatchesPlaintext(t *testing.T) {
	tc := newTestContext(t)
	n := tc.params.Slots()
	a := randomValues(n, 91)
	ct, err := tc.encr.Encrypt(mustEncode(t, tc, a))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []KeySwitchMethod{Hybrid, KLSS} {
		for _, rots := range [][]int{{1, 4, -1}, {1, 2, 4, 8}, {0, 1, 2}, {2, 2, -2}, {0, 0}} {
			sum, err := tc.eval.RotateSumWith(ct, rots, m)
			if err != nil {
				t.Fatal(err)
			}
			want := rotatedSum(a, rots)
			fused := tc.decryptDecode(t, sum)
			if e := maxErr(fused, want); e > tolerance {
				t.Fatalf("%v RotateSum(%v): error %g", m, rots, e)
			}
			outs, err := tc.eval.RotateHoistedWith(ct, rots, m)
			if err != nil {
				t.Fatal(err)
			}
			acc := outs[rots[0]]
			for _, r := range rots[1:] {
				if acc, err = tc.eval.Add(acc, outs[r]); err != nil {
					t.Fatal(err)
				}
			}
			fe, ue := meanErr(fused, want), meanErr(tc.decryptDecode(t, acc), want)
			t.Logf("%v %v: mean error fused %.3g, unfused %.3g", m, rots, fe, ue)
			if fe > ue {
				t.Errorf("%v RotateSum(%v): mean error %.3g above the unfused %.3g", m, rots, fe, ue)
			}
		}
	}
}

// One call serves a hoist group: one ModUp, a ModDown pair per loose rotation
// and per sum, and outputs byte-identical to the calls that compute each
// alone.
func TestRotateHoistedSumsShareOneDecomposition(t *testing.T) {
	tc := newTestContext(t)
	ev, ob := observedEvaluator(t, tc)
	ct, err := tc.encr.Encrypt(mustEncode(t, tc, randomValues(tc.params.Slots(), 92)))
	if err != nil {
		t.Fatal(err)
	}
	sums := [][]int{{1, 4, -1}, {0, 4}}
	outs, got, err := ev.RotateHoistedSumsCtx(context.Background(), ct, []int{4, 2}, sums, Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	if up, km, down := phaseCounts(ob, Hybrid); up != 1 || km != 4 || down != 4 {
		t.Fatalf("ran %d ModUp, %d KeyMult, %d ModDown; want 1, 4, 4", up, km, down)
	}
	loose, err := tc.eval.RotateHoistedWith(ct, []int{4, 2}, Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{4, 2} {
		if !outs[r].C0.Equal(loose[r].C0) || !outs[r].C1.Equal(loose[r].C1) {
			t.Fatalf("rotation %d differs from RotateHoisted's", r)
		}
	}
	for i, rots := range sums {
		alone, err := tc.eval.RotateSumWith(ct, rots, Hybrid)
		if err != nil {
			t.Fatal(err)
		}
		if !got[i].C0.Equal(alone.C0) || !got[i].C1.Equal(alone.C1) {
			t.Fatalf("sum %v differs from RotateSum's", rots)
		}
	}
}

func mustEncode(t *testing.T, tc *testContext, values []complex128) *Plaintext {
	t.Helper()
	pt, err := tc.enc.Encode(values)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}
