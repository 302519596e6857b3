package ckks

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

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
	tc.eval, err = NewEvaluator(params, tc.keys)
	if err != nil {
		t.Fatalf("NewEvaluator: %v", err)
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

func testHMult(t *testing.T, method KeySwitchMethod) {
	tc := newTestContext(t)
	if err := tc.eval.SetMethod(method); err != nil {
		t.Fatalf("SetMethod: %v", err)
	}
	defer tc.eval.SetMethod(Hybrid)

	a := randomValues(tc.params.Slots(), 11)
	b := randomValues(tc.params.Slots(), 12)
	pa, _ := tc.enc.Encode(a)
	pb, _ := tc.enc.Encode(b)
	ca, _ := tc.encr.Encrypt(pa)
	cb, _ := tc.encr.Encrypt(pb)

	prod, err := tc.eval.MulRelin(ca, cb)
	if err != nil {
		t.Fatalf("MulRelin: %v", err)
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
	if err := tc.eval.SetMethod(method); err != nil {
		t.Fatalf("SetMethod: %v", err)
	}
	defer tc.eval.SetMethod(Hybrid)

	n := tc.params.Slots()
	a := randomValues(n, 13)
	pa, _ := tc.enc.Encode(a)
	ca, _ := tc.encr.Encrypt(pa)

	for _, r := range []int{1, -1, 4} {
		rot, err := tc.eval.Rotate(ca, r)
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
	conj, err := tc.eval.Conjugate(ca)
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
	if err := tc.eval.SetMethod(method); err != nil {
		t.Fatalf("SetMethod: %v", err)
	}
	defer tc.eval.SetMethod(Hybrid)

	n := tc.params.Slots()
	a := randomValues(n, 15)
	pa, _ := tc.enc.Encode(a)
	ca, _ := tc.encr.Encrypt(pa)

	rots := []int{0, 1, 2, 3, 8}
	out, err := tc.eval.RotateHoisted(ca, rots)
	if err != nil {
		t.Fatalf("RotateHoisted: %v", err)
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
	hoisted, err := tc.eval.RotateHoisted(ca, []int{3})
	if err != nil {
		t.Fatalf("RotateHoisted: %v", err)
	}
	direct, err := tc.eval.Rotate(ca, 3)
	if err != nil {
		t.Fatalf("Rotate: %v", err)
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
		if err := tc.eval.SetMethod(method); err != nil {
			t.Fatalf("SetMethod: %v", err)
		}
		a := make([]complex128, tc.params.Slots())
		for i := range a {
			a[i] = complex(0.9, 0)
		}
		pa, _ := tc.enc.Encode(a)
		ct, _ := tc.encr.Encrypt(pa)
		want := 0.9
		for depth := 0; depth < 3; depth++ {
			var err error
			ct, err = tc.eval.MulRelin(ct, ct)
			if err != nil {
				t.Fatalf("depth %d MulRelin: %v", depth, err)
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
		tc.eval.SetMethod(Hybrid)
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
	if _, err := tc.eval.Rotate(ca, 999); err == nil {
		t.Fatal("expected missing-galois-key error")
	}
	empty := NewEvaluationKeySet()
	ev, err := NewEvaluator(tc.params, empty)
	if err != nil {
		t.Fatalf("NewEvaluator: %v", err)
	}
	if _, err := ev.MulRelin(ca, ca); err == nil {
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
