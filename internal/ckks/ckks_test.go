package ckks

import (
	"math"
	"math/big"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/fastfhe/fast/internal/obs"
)

// testContext bundles everything a scheme test needs.
type testContext struct {
	params *Parameters
	enc    *Encoder
	kgen   *KeyGenerator
	sk     *SecretKey
	pk     *PublicKey
	encr   *Encryptor
	decr   *Decryptor
	keys   *EvaluationKeySet
	eval   *Evaluator
	ob     *obs.Observer // set by newBootstrapContext only
}

var sharedCtx *testContext

// newTestContext builds (once) a context with both backends and a handful of
// rotation keys.
func newTestContext(t *testing.T) *testContext {
	t.Helper()
	if sharedCtx != nil {
		return sharedCtx
	}
	params, err := TestParameters()
	if err != nil {
		t.Fatalf("TestParameters: %v", err)
	}
	tc := &testContext{params: params}
	tc.enc = NewEncoder(params)
	tc.kgen = NewKeyGenerator(params)
	tc.sk = tc.kgen.GenSecretKey()
	tc.pk = tc.kgen.GenPublicKey(tc.sk)
	tc.encr = NewEncryptor(params, tc.pk)
	tc.decr = NewDecryptor(params, tc.sk)
	tc.keys, err = tc.kgen.GenEvaluationKeySet(tc.sk,
		[]KeySwitchMethod{Hybrid, KLSS},
		[]int{1, -1, 2, -2, 3, 4, -4, 8, 16}, true)
	if err != nil {
		t.Fatalf("GenEvaluationKeySet: %v", err)
	}
	tc.eval, err = NewEvaluatorOptions(params, tc.keys, EvaluatorOptions{})
	if err != nil {
		t.Fatalf("NewEvaluatorOptions: %v", err)
	}
	sharedCtx = tc
	return tc
}

func randomValues(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return v
}

// maxErr returns the worst slot-wise absolute error.
func maxErr(got, want []complex128) float64 {
	worst := 0.0
	for i := range want {
		if e := cmplx.Abs(got[i] - want[i]); e > worst {
			worst = e
		}
	}
	return worst
}

func (tc *testContext) decryptDecode(t *testing.T, ct *Ciphertext) []complex128 {
	t.Helper()
	return tc.enc.Decode(tc.decr.Decrypt(ct))
}

const tolerance = 1e-4 // Δ=2^36 gives ~10 decimal digits; stay conservative

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tc := newTestContext(t)
	values := randomValues(tc.params.Slots(), 1)
	pt, err := tc.enc.Encode(values)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got := tc.enc.Decode(pt)
	if e := maxErr(got, values); e > 1e-7 {
		t.Fatalf("encode/decode error %g too large", e)
	}
}

// TestScaleToInt64MatchesBigFloat: the encoder's int64 path agrees with the
// big.Float path wherever it takes a value — random values, half-way values
// (k + 0.5), ±0 and products near 2^53 and 2^62 — at power-of-two scales,
// and declines products from 2^63.
func TestScaleToInt64MatchesBigFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	check := func(v, scale float64, wantOK bool) {
		t.Helper()
		got, ok := scaleToInt64(v, scale)
		if ok != wantOK {
			t.Fatalf("scaleToInt64(%v, %v): ok %v, want %v", v, scale, ok, wantOK)
		}
		if !ok {
			return
		}
		want, err := scaleToInt(v, scale)
		if err != nil || !want.IsInt64() || want.Int64() != got {
			t.Fatalf("scaleToInt64(%v, %v) = %d, big.Float path %v (%v)", v, scale, got, want, err)
		}
	}
	for _, logScale := range []int{-3, 0, 20, 36, 40, 50, 60} {
		scale := math.Ldexp(1, logScale)
		for i := 0; i < 2000; i++ {
			v := rng.NormFloat64() * math.Ldexp(1, rng.Intn(40)-20)
			check(v, scale, math.Abs(v*scale) < 1<<63)
			k := float64(rng.Int63n(1<<52)) - 1<<51
			check((k+0.5)/scale, scale, true)
		}
		for _, v := range []float64{0, math.Copysign(0, -1), 0.5, -0.5, 1.5, -1.5, 2.5, -2.5} {
			check(v/scale, scale, true)
		}
		for _, e := range []int{53, 62} {
			for d := -3.0; d <= 3; d++ {
				for _, sign := range []float64{1, -1} {
					v := sign * (math.Ldexp(1, e) + d*math.Ldexp(1, e-52)) / scale
					check(v, scale, true)
					check(math.Nextafter(v, 0), scale, true)
				}
			}
		}
		check(math.Ldexp(1, 63)/scale, scale, false)
		check(-math.Ldexp(1, 63)/scale, scale, false)
		check(math.Nextafter(math.Ldexp(1, 63), 0)/scale, scale, true)
	}
	check(math.NaN(), 1<<40, false)
	check(math.Inf(-1), 1<<40, false)
}

// TestEncodeNonPowerOfTwoScaleUsesBigFloat: at a scale that is not a power of
// two, v*scale rounds in float64, so the encoder keeps big.Float. The
// plaintext equals one built by scaleToInt from the same embedding, on values
// where int64(math.Round(v*scale)) would give other integers.
func TestEncodeNonPowerOfTwoScaleUsesBigFloat(t *testing.T) {
	tc := newTestContext(t)
	p, level := tc.params, tc.params.MaxLevel()
	scale := 3 * math.Ldexp(1, 52)
	values := randomValues(p.Slots(), 5)
	pt, err := tc.enc.EncodeAtLevel(values, level, scale)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]complex128, p.Slots())
	copy(w, values)
	tc.enc.embed(w)
	n, gap := p.N(), p.N()/2/p.Slots()
	coeffs := make([]*big.Int, n)
	for i := range coeffs {
		coeffs[i] = new(big.Int)
	}
	differ := 0
	for j, c := range w {
		for k, v := range [2]float64{real(c), imag(c)} {
			i := j*gap + k*n/2
			if coeffs[i], err = scaleToInt(v, scale); err != nil {
				t.Fatal(err)
			}
			if !coeffs[i].IsInt64() || coeffs[i].Int64() != int64(math.Round(v*scale)) {
				differ++
			}
		}
	}
	if differ == 0 {
		t.Fatal("float64 rounding agrees with big.Float on every coefficient; the check would pass an int64 path")
	}
	rq := p.RingQ().AtLevel(level)
	want := rq.NewPoly()
	rq.SetCoeffBigint(coeffs, want)
	rq.NTT(want)
	if !pt.Value.Equal(want) {
		t.Fatalf("plaintext at scale %g differs from the big.Float encoding (%d coefficients round differently in float64)", scale, differ)
	}
}

func TestEncodeIsRingHomomorphism(t *testing.T) {
	// Slot-wise product of messages == negacyclic product of encodings.
	tc := newTestContext(t)
	rq := tc.params.RingQ()
	a := randomValues(tc.params.Slots(), 2)
	b := randomValues(tc.params.Slots(), 3)
	pa, _ := tc.enc.Encode(a)
	pb, _ := tc.enc.Encode(b)
	prod := &Plaintext{Value: rq.NewPoly(), Level: tc.params.MaxLevel(), Scale: pa.Scale * pb.Scale}
	rq.MulCoeffs(pa.Value, pb.Value, prod.Value)
	got := tc.enc.Decode(prod)
	want := make([]complex128, len(a))
	for i := range a {
		want[i] = a[i] * b[i]
	}
	if e := maxErr(got, want); e > 1e-6 {
		t.Fatalf("embedding is not multiplicative: error %g", e)
	}
}

func TestEncryptDecrypt(t *testing.T) {
	tc := newTestContext(t)
	values := randomValues(tc.params.Slots(), 4)
	pt, _ := tc.enc.Encode(values)
	ct, err := tc.encr.Encrypt(pt)
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	got := tc.decryptDecode(t, ct)
	if e := maxErr(got, values); e > tolerance {
		t.Fatalf("encrypt/decrypt error %g too large", e)
	}
}

func TestEncryptAtLowerLevel(t *testing.T) {
	tc := newTestContext(t)
	values := randomValues(tc.params.Slots(), 5)
	pt, err := tc.enc.EncodeAtLevel(values, 2, tc.params.Scale())
	if err != nil {
		t.Fatalf("EncodeAtLevel: %v", err)
	}
	ct, err := tc.encr.Encrypt(pt)
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	if ct.Level != 2 {
		t.Fatalf("ciphertext level %d, want 2", ct.Level)
	}
	if e := maxErr(tc.decryptDecode(t, ct), values); e > tolerance {
		t.Fatalf("low-level encrypt error %g", e)
	}
}

func TestHAddHSub(t *testing.T) {
	tc := newTestContext(t)
	a := randomValues(tc.params.Slots(), 6)
	b := randomValues(tc.params.Slots(), 7)
	pa, _ := tc.enc.Encode(a)
	pb, _ := tc.enc.Encode(b)
	ca, _ := tc.encr.Encrypt(pa)
	cb, _ := tc.encr.Encrypt(pb)

	sum, err := tc.eval.Add(ca, cb)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	want := make([]complex128, len(a))
	for i := range a {
		want[i] = a[i] + b[i]
	}
	if e := maxErr(tc.decryptDecode(t, sum), want); e > tolerance {
		t.Fatalf("HAdd error %g", e)
	}

	diff, err := tc.eval.Sub(ca, cb)
	if err != nil {
		t.Fatalf("Sub: %v", err)
	}
	for i := range a {
		want[i] = a[i] - b[i]
	}
	if e := maxErr(tc.decryptDecode(t, diff), want); e > tolerance {
		t.Fatalf("HSub error %g", e)
	}
}

func TestPAddPMult(t *testing.T) {
	tc := newTestContext(t)
	a := randomValues(tc.params.Slots(), 8)
	b := randomValues(tc.params.Slots(), 9)
	pa, _ := tc.enc.Encode(a)
	pb, _ := tc.enc.Encode(b)
	ca, _ := tc.encr.Encrypt(pa)

	sum, err := tc.eval.AddPlain(ca, pb)
	if err != nil {
		t.Fatalf("AddPlain: %v", err)
	}
	want := make([]complex128, len(a))
	for i := range a {
		want[i] = a[i] + b[i]
	}
	if e := maxErr(tc.decryptDecode(t, sum), want); e > tolerance {
		t.Fatalf("PAdd error %g", e)
	}

	prod, err := tc.eval.MulPlain(ca, pb)
	if err != nil {
		t.Fatalf("MulPlain: %v", err)
	}
	rs, err := tc.eval.Rescale(prod)
	if err != nil {
		t.Fatalf("Rescale: %v", err)
	}
	if rs.Level != ca.Level-1 {
		t.Fatalf("rescale level %d, want %d", rs.Level, ca.Level-1)
	}
	for i := range a {
		want[i] = a[i] * b[i]
	}
	if e := maxErr(tc.decryptDecode(t, rs), want); e > tolerance {
		t.Fatalf("PMult error %g", e)
	}
}

func TestCMultAndAddConst(t *testing.T) {
	tc := newTestContext(t)
	a := randomValues(tc.params.Slots(), 10)
	pa, _ := tc.enc.Encode(a)
	ca, _ := tc.encr.Encrypt(pa)

	scaled, err := tc.eval.MulConst(ca, 1.5)
	if err != nil {
		t.Fatalf("MulConst: %v", err)
	}
	scaled, err = tc.eval.Rescale(scaled)
	if err != nil {
		t.Fatalf("Rescale: %v", err)
	}
	want := make([]complex128, len(a))
	for i := range a {
		want[i] = a[i] * 1.5
	}
	if e := maxErr(tc.decryptDecode(t, scaled), want); e > tolerance {
		t.Fatalf("CMult error %g", e)
	}

	shifted, err := tc.eval.AddConst(ca, -0.25)
	if err != nil {
		t.Fatalf("AddConst: %v", err)
	}
	for i := range a {
		want[i] = a[i] - 0.25
	}
	if e := maxErr(tc.decryptDecode(t, shifted), want); e > tolerance {
		t.Fatalf("AddConst error %g", e)
	}
}

// Property: homomorphic addition commutes and is compatible with plaintext
// addition across random vectors (quick-check over the functional layer).
func TestAdditionPropertyQuick(t *testing.T) {
	tc := newTestContext(t)
	n := tc.params.Slots()
	f := func(seedA, seedB int64) bool {
		a := randomValues(n, seedA)
		b := randomValues(n, seedB)
		pa, _ := tc.enc.Encode(a)
		pb, _ := tc.enc.Encode(b)
		ca, _ := tc.encr.Encrypt(pa)
		cb, _ := tc.encr.Encrypt(pb)
		ab, err := tc.eval.Add(ca, cb)
		if err != nil {
			return false
		}
		ba, err := tc.eval.Add(cb, ca)
		if err != nil {
			return false
		}
		gab := tc.enc.Decode(tc.decr.Decrypt(ab))
		gba := tc.enc.Decode(tc.decr.Decrypt(ba))
		for i := range a {
			if absc(gab[i]-gba[i]) > 1e-6 || absc(gab[i]-(a[i]+b[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}

// Property: scalar multiplication distributes over addition.
func TestDistributivityQuick(t *testing.T) {
	tc := newTestContext(t)
	n := tc.params.Slots()
	f := func(seed int64, kRaw uint8) bool {
		k := float64(kRaw%9)/4 - 1 // constants in [-1, 1]
		a := randomValues(n, seed)
		b := randomValues(n, seed+1)
		pa, _ := tc.enc.Encode(a)
		pb, _ := tc.enc.Encode(b)
		ca, _ := tc.encr.Encrypt(pa)
		cb, _ := tc.encr.Encrypt(pb)

		sum, err := tc.eval.Add(ca, cb)
		if err != nil {
			return false
		}
		lhs, err := tc.eval.MulConst(sum, k)
		if err != nil {
			return false
		}
		ka, err := tc.eval.MulConst(ca, k)
		if err != nil {
			return false
		}
		kb, err := tc.eval.MulConst(cb, k)
		if err != nil {
			return false
		}
		rhs, err := tc.eval.Add(ka, kb)
		if err != nil {
			return false
		}
		gl := tc.enc.Decode(tc.decr.Decrypt(lhs))
		gr := tc.enc.Decode(tc.decr.Decrypt(rhs))
		for i := range a {
			if absc(gl[i]-gr[i]) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4}); err != nil {
		t.Error(err)
	}
}

func testHMult(t *testing.T, method KeySwitchMethod) {
	tc := newTestContext(t)
	a := randomValues(tc.params.Slots(), 11)
	b := randomValues(tc.params.Slots(), 12)
	pa, _ := tc.enc.Encode(a)
	pb, _ := tc.enc.Encode(b)
	ca, _ := tc.encr.Encrypt(pa)
	cb, _ := tc.encr.Encrypt(pb)

	prod, err := tc.eval.MulRelinWith(ca, cb, method)
	if err != nil {
		t.Fatalf("MulRelinWith: %v", err)
	}
	prod, err = tc.eval.Rescale(prod)
	if err != nil {
		t.Fatalf("Rescale: %v", err)
	}
	want := make([]complex128, len(a))
	for i := range a {
		want[i] = a[i] * b[i]
	}
	if e := maxErr(tc.decryptDecode(t, prod), want); e > tolerance {
		t.Fatalf("%v HMult error %g", method, e)
	}
}

func TestHMultHybrid(t *testing.T) { testHMult(t, Hybrid) }
func TestHMultKLSS(t *testing.T)   { testHMult(t, KLSS) }

func testHRot(t *testing.T, method KeySwitchMethod) {
	tc := newTestContext(t)
	n := tc.params.Slots()
	a := randomValues(n, 13)
	pa, _ := tc.enc.Encode(a)
	ca, _ := tc.encr.Encrypt(pa)

	for _, r := range []int{1, -1, 4} {
		rot, err := tc.eval.RotateWith(ca, r, method)
		if err != nil {
			t.Fatalf("Rotate(%d): %v", r, err)
		}
		want := make([]complex128, n)
		for i := range want {
			want[i] = a[((i+r)%n+n)%n]
		}
		if e := maxErr(tc.decryptDecode(t, rot), want); e > tolerance {
			t.Fatalf("%v HRot(%d) error %g", method, r, e)
		}
	}
}

func TestHRotHybrid(t *testing.T) { testHRot(t, Hybrid) }
func TestHRotKLSS(t *testing.T)   { testHRot(t, KLSS) }

func TestConjugate(t *testing.T) {
	tc := newTestContext(t)
	a := randomValues(tc.params.Slots(), 14)
	pa, _ := tc.enc.Encode(a)
	ca, _ := tc.encr.Encrypt(pa)
	conj, err := tc.eval.ConjugateWith(ca, Hybrid)
	if err != nil {
		t.Fatalf("Conjugate: %v", err)
	}
	want := make([]complex128, len(a))
	for i := range a {
		want[i] = cmplx.Conj(a[i])
	}
	if e := maxErr(tc.decryptDecode(t, conj), want); e > tolerance {
		t.Fatalf("Conjugate error %g", e)
	}
}

func testHoistedRotations(t *testing.T, method KeySwitchMethod) {
	tc := newTestContext(t)
	n := tc.params.Slots()
	a := randomValues(n, 15)
	pa, _ := tc.enc.Encode(a)
	ca, _ := tc.encr.Encrypt(pa)

	rots := []int{0, 1, 2, 3, 8}
	out, err := tc.eval.RotateHoistedWith(ca, rots, method)
	if err != nil {
		t.Fatalf("RotateHoistedWith: %v", err)
	}
	for _, r := range rots {
		want := make([]complex128, n)
		for i := range want {
			want[i] = a[(i+r)%n]
		}
		if e := maxErr(tc.decryptDecode(t, out[r]), want); e > tolerance {
			t.Fatalf("%v hoisted rot %d error %g", method, r, e)
		}
	}
}

func TestHoistedRotationsHybrid(t *testing.T) { testHoistedRotations(t, Hybrid) }
func TestHoistedRotationsKLSS(t *testing.T)   { testHoistedRotations(t, KLSS) }

// Hoisted rotations must agree (to noise) with one-shot rotations.
func TestHoistedMatchesDirect(t *testing.T) {
	tc := newTestContext(t)
	a := randomValues(tc.params.Slots(), 16)
	pa, _ := tc.enc.Encode(a)
	ca, _ := tc.encr.Encrypt(pa)
	hoisted, err := tc.eval.RotateHoistedWith(ca, []int{3}, Hybrid)
	if err != nil {
		t.Fatalf("RotateHoistedWith: %v", err)
	}
	direct, err := tc.eval.RotateWith(ca, 3, Hybrid)
	if err != nil {
		t.Fatalf("RotateWith: %v", err)
	}
	gh := tc.decryptDecode(t, hoisted[3])
	gd := tc.decryptDecode(t, direct)
	if e := maxErr(gh, gd); e > tolerance {
		t.Fatalf("hoisted vs direct differ by %g", e)
	}
}

func TestMultiplicativeDepth(t *testing.T) {
	// Chain multiplications down the modulus chain on both backends.
	for _, method := range []KeySwitchMethod{Hybrid, KLSS} {
		tc := newTestContext(t)
		a := make([]complex128, tc.params.Slots())
		for i := range a {
			a[i] = complex(0.9, 0)
		}
		pa, _ := tc.enc.Encode(a)
		ct, _ := tc.encr.Encrypt(pa)
		want := 0.9
		for depth := 0; depth < 3; depth++ {
			var err error
			ct, err = tc.eval.MulRelinWith(ct, ct, method)
			if err != nil {
				t.Fatalf("depth %d MulRelinWith: %v", depth, err)
			}
			ct, err = tc.eval.Rescale(ct)
			if err != nil {
				t.Fatalf("depth %d Rescale: %v", depth, err)
			}
			want *= want
			got := tc.decryptDecode(t, ct)
			if e := math.Abs(real(got[0]) - want); e > 1e-3 {
				t.Fatalf("%v depth %d error %g (got %g want %g)", method, depth, e, real(got[0]), want)
			}
		}
	}
}

func TestLevelMismatchAligns(t *testing.T) {
	tc := newTestContext(t)
	a := randomValues(tc.params.Slots(), 17)
	pa, _ := tc.enc.Encode(a)
	ca, _ := tc.encr.Encrypt(pa)
	lower := tc.eval.DropLevel(ca, 2)
	if lower.Level != ca.Level-2 {
		t.Fatalf("DropLevel gave level %d", lower.Level)
	}
	sum, err := tc.eval.Add(ca, lower)
	if err != nil {
		t.Fatalf("Add across levels: %v", err)
	}
	if sum.Level != lower.Level {
		t.Fatalf("sum level %d, want %d", sum.Level, lower.Level)
	}
	want := make([]complex128, len(a))
	for i := range a {
		want[i] = 2 * a[i]
	}
	if e := maxErr(tc.decryptDecode(t, sum), want); e > tolerance {
		t.Fatalf("cross-level add error %g", e)
	}
}

func TestScaleMismatchErrors(t *testing.T) {
	tc := newTestContext(t)
	a := randomValues(tc.params.Slots(), 18)
	pa, _ := tc.enc.Encode(a)
	ca, _ := tc.encr.Encrypt(pa)
	scaled, _ := tc.eval.MulConst(ca, 2)
	if _, err := tc.eval.Add(ca, scaled); err == nil {
		t.Fatal("expected scale-mismatch error from Add")
	}
}

func TestRescaleAtLevelZeroErrors(t *testing.T) {
	tc := newTestContext(t)
	a := randomValues(tc.params.Slots(), 19)
	pa, _ := tc.enc.Encode(a)
	ca, _ := tc.encr.Encrypt(pa)
	bottom := tc.eval.DropLevel(ca, ca.Level)
	if _, err := tc.eval.Rescale(bottom); err == nil {
		t.Fatal("expected error rescaling at level 0")
	}
}

func TestMissingKeyErrors(t *testing.T) {
	tc := newTestContext(t)
	a := randomValues(tc.params.Slots(), 20)
	pa, _ := tc.enc.Encode(a)
	ca, _ := tc.encr.Encrypt(pa)
	if _, err := tc.eval.RotateWith(ca, 999, Hybrid); err == nil {
		t.Fatal("expected missing-galois-key error")
	}
	empty := &EvaluationKeySet{}
	ev, err := NewEvaluatorOptions(tc.params, empty, EvaluatorOptions{})
	if err != nil {
		t.Fatalf("NewEvaluatorOptions: %v", err)
	}
	if _, err := ev.MulRelinWith(ca, ca, Hybrid); err == nil {
		t.Fatal("expected missing-relin-key error")
	}
}

func TestKeySwitchMethodString(t *testing.T) {
	if Hybrid.String() != "hybrid" || KLSS.String() != "klss" {
		t.Fatal("method names wrong")
	}
	if KeySwitchMethod(9).String() == "" {
		t.Fatal("unknown method should still print")
	}
}
