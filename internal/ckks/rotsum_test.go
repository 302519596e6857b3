package ckks

import (
	"context"
	"math/cmplx"
	"testing"

	"github.com/fastfhe/fast/internal/obs"
	"github.com/fastfhe/fast/internal/ring"
	"github.com/fastfhe/fast/internal/ring/kerneltest"
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

// referenceProduct is the rotated key product in the order keyProduct
// replaces: every term's β digits permuted by its φ first, then one
// h·β-term MulAccRows per row against the permuted key rows φ(k′), unpacked.
func referenceProduct(ks *KeySwitcher, d *Decomposition, terms []ksTerm, level int) (acc0, acc1 ring.Poly) {
	n, rows, beta := ks.params.N(), level+1+ks.sLen, ks.beta(level)
	qLen := len(ks.params.qChain)
	acc0, acc1 = ring.NewPoly(n, rows), ring.NewPoly(n, rows)
	permuted := func(row []uint64, idx []int) []uint64 {
		out := make([]uint64, n)
		ring.PermuteRow(out, row, idx)
		return out
	}
	// The key rows unpacked: the reference reads the 8-byte layout.
	type pair struct{ b, a ring.Poly }
	keys := map[*SwitchingKey][]pair{}
	for _, t := range terms {
		if keys[t.key] != nil {
			continue
		}
		for j := 0; j < beta; j++ {
			keys[t.key] = append(keys[t.key], pair{t.key.B[j].Unpack(), t.key.A[j].Unpack()})
		}
	}
	for i := 0; i < rows; i++ {
		keyRow := i
		if i > level {
			keyRow = qLen + (i - level - 1)
		}
		var gs, bs, as [][]uint64
		for _, t := range terms {
			for j := 0; j < beta; j++ {
				gs = append(gs, permuted(d.Groups[j].Coeffs[i], t.idx))
				bs = append(bs, permuted(keys[t.key][j].b.Coeffs[keyRow], t.idx))
				as = append(as, permuted(keys[t.key][j].a.Coeffs[keyRow], t.idx))
			}
		}
		m := ks.modFor(level, i)
		m.MulAccRows(acc0.Coeffs[i], gs, bs)
		m.MulAccRows(acc1.Coeffs[i], gs, as)
	}
	return acc0, acc1
}

// Moving the permutation after the key product is exact: φ permutes NTT
// slots, so φ(Σ_j d_j·k′_j) = Σ_j φ(d_j)·φ(k′_j), and keyProduct's PQ
// accumulator equals referenceProduct's bit for bit — at every level, for
// h = 1, 3, 4 and 5 rotations, under both methods, on every kernel path.
// At β = 5 the h = 4 and 5 rows of the 50-bit q0 and P primes sum 20 and 25 digit
// products in the reference, past the 15 one 52-bit multiply-accumulate
// holds, so there the reference runs the 128-bit fallback against
// keyProduct's β-term IFMA sums.
func TestKeyProductMatchesPermutedDigits(t *testing.T) {
	params, err := NewParameters(ParametersLiteral{
		LogN: 10, LogSlots: 9, LogQ: append([]int{50}, repeat(36, 9)...), LogP: []int{50, 50},
		LogT: []int{60, 60}, LogScale: 36, Alpha: 2, AlphaT: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	kgen := NewKeyGenerator(params)
	sk := kgen.GenSecretKey()
	pt, err := NewEncoder(params).Encode(randomValues(params.Slots(), 93))
	if err != nil {
		t.Fatal(err)
	}
	ct, err := NewEncryptor(params, kgen.GenPublicKey(sk)).Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	rotations := []int{1, 2, 4, 8, 16}
	for _, m := range []KeySwitchMethod{Hybrid, KLSS} {
		ks, err := NewKeySwitcherWorkers(params, m, 2)
		if err != nil {
			t.Fatal(err)
		}
		all := make([]ksTerm, len(rotations))
		for i, r := range rotations {
			galEl := params.GaloisElement(r)
			key, err := kgen.GenGaloisKey(sk, galEl, m)
			if err != nil {
				t.Fatal(err)
			}
			all[i] = ksTerm{key: key, idx: params.GaloisIndex(galEl)}
		}
		t.Run(m.String(), func(t *testing.T) {
			kerneltest.EachPath(t, func(t *testing.T) {
				for _, level := range []int{0, 4, 9} {
					d, err := ks.Decompose(ct.C1.Truncated(level+1), level)
					if err != nil {
						t.Fatal(err)
					}
					for _, h := range []int{1, 3, 4, 5} {
						terms := all[:h]
						want0, want1 := referenceProduct(ks, d, terms, level)
						rows := level + 1 + ks.sLen
						got0, got1 := ring.NewPoly(params.N(), rows), ring.NewPoly(params.N(), rows)
						if err := ks.keyProduct(nil, d, terms, level, got0, got1); err != nil {
							t.Fatal(err)
						}
						if !got0.Equal(want0) || !got1.Equal(want1) {
							t.Fatalf("%v level %d h %d (β %d): accumulator differs from the permuted-digit reference",
								m, level, h, ks.beta(level))
						}
					}
					ks.Release(d)
				}
			})
		})
	}
}
