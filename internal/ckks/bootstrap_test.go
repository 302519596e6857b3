package ckks

import (
	"bytes"
	"fmt"
	"math"
	"math/big"
	"math/cmplx"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"github.com/fastfhe/fast/internal/obs"
	"github.com/fastfhe/fast/internal/ring"
)

// bootstrapLiteral is the (deliberately insecure, demo-sized) parameter
// family the functional bootstrap runs on, fast.NewBootstrapContext's: a
// 24-level 40-bit chain under a 50-bit base prime, α = 3, sparse secret of
// weight 16.
func bootstrapLiteral(logN, logSlots int, seed int64) ParametersLiteral {
	return ParametersLiteral{
		LogN:                logN,
		LogSlots:            logSlots,
		LogQ:                append([]int{50}, repeat(40, 24)...),
		LogP:                []int{50, 50, 50},
		LogScale:            40,
		Alpha:               3,
		Seed:                seed,
		SecretHammingWeight: 16,
	}
}

// newBootstrapContext generates the keys BootstrapRotations asks for — the
// bootstrapper must need no other — and builds an observed evaluator (the
// key-switch count is read from its registry) and a bootstrapper on it.
func newBootstrapContext(tb testing.TB, params *Parameters) (*testContext, *Bootstrapper) {
	tb.Helper()
	tc := &testContext{params: params}
	tc.enc = NewEncoder(params)
	tc.kgen = NewKeyGenerator(params)
	tc.sk = tc.kgen.GenSecretKey()
	tc.pk = tc.kgen.GenPublicKey(tc.sk)
	tc.encr = NewEncryptor(params, tc.pk)
	tc.decr = NewDecryptor(params, tc.sk)
	var err error
	tc.keys, err = tc.kgen.GenEvaluationKeySet(tc.sk,
		[]KeySwitchMethod{Hybrid}, BootstrapRotations(params), true)
	if err != nil {
		tb.Fatalf("GenEvaluationKeySet: %v", err)
	}
	tc.ob = obs.New()
	tc.eval, err = NewEvaluatorOptions(params, tc.keys, EvaluatorOptions{Observer: tc.ob})
	if err != nil {
		tb.Fatalf("NewEvaluator: %v", err)
	}
	bt, err := NewBootstrapper(params, tc.enc, tc.eval, DefaultBootstrapParameters())
	if err != nil {
		tb.Fatalf("NewBootstrapper: %v", err)
	}
	return tc, bt
}

var cachedBootCtx *testContext
var cachedBootstrapper *Bootstrapper

// bootstrapTestContext is the shared log_n 12, 16-slot context.
func bootstrapTestContext(t *testing.T) (*testContext, *Bootstrapper) {
	t.Helper()
	if cachedBootCtx == nil {
		params, err := NewParameters(bootstrapLiteral(12, 4, 3))
		if err != nil {
			t.Fatalf("NewParameters: %v", err)
		}
		cachedBootCtx, cachedBootstrapper = newBootstrapContext(t, params)
	}
	return cachedBootCtx, cachedBootstrapper
}

func repeat(v, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// exhausted encrypts values and drops the ciphertext to level 0, as a long
// computation would.
func exhausted(tb testing.TB, tc *testContext, values []complex128) *Ciphertext {
	tb.Helper()
	pt, err := tc.enc.Encode(values)
	if err != nil {
		tb.Fatal(err)
	}
	ct, err := tc.encr.Encrypt(pt)
	if err != nil {
		tb.Fatal(err)
	}
	return tc.eval.DropLevel(ct, ct.Level)
}

func TestBootstrapRefreshesCiphertext(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap test is slow")
	}
	tc, bt := bootstrapTestContext(t)
	n := tc.params.Slots()

	values := make([]complex128, n)
	for i := range values {
		values[i] = complex(0.4*math.Cos(float64(i)), 0.3*math.Sin(2*float64(i)))
	}
	ct := exhausted(t, tc, values)
	if ct.Level != 0 {
		t.Fatalf("setup: expected level 0, got %d", ct.Level)
	}

	refreshed, err := bt.Bootstrap(ct)
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	if refreshed.Level < 1 {
		t.Fatalf("bootstrap must restore usable levels, got %d", refreshed.Level)
	}
	got := tc.enc.Decode(tc.decr.Decrypt(refreshed))
	if e := maxErr(got, values); e > 2e-2 {
		t.Fatalf("bootstrap error %g (level restored to %d)", e, refreshed.Level)
	}
	t.Logf("bootstrap: restored to level %d with max error %.3g", refreshed.Level, maxErr(got, values))

	// The refreshed ciphertext must support further computation.
	prod, err := tc.eval.MulRelinWith(refreshed, refreshed, Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	prod, err = tc.eval.Rescale(prod)
	if err != nil {
		t.Fatal(err)
	}
	got2 := tc.enc.Decode(tc.decr.Decrypt(prod))
	want := make([]complex128, n)
	for i := range want {
		want[i] = values[i] * values[i]
	}
	if e := maxErr(got2, want); e > 4e-2 {
		t.Fatalf("post-bootstrap multiplication error %g", e)
	}
}

// precisionFloors are the checked-in rms floors, in bits, of
// TestBootstrapPrecisionTable's rows, about one bit under what the rows
// measure. The log_n 12 / 16-slot row is fast.NewBootstrapContext's default
// point; the split → two-EvalMod → recombine pipeline this one replaced
// reached 11.1 bits there.
var precisionFloors = map[string]float64{
	"logN=10/logSlots=3": 16.5,
	"logN=10/logSlots=4": 15.3,
	"logN=10/logSlots=5": 14.5,
	"logN=12/logSlots=3": 16.8,
	"logN=12/logSlots=4": 15.8,
	"logN=12/logSlots=5": 14.6,
	"logN=6/logSlots=5":  15.9,
}

// TestBootstrapPrecisionTable is the external oracle for the bootstrap:
// decrypt-vs-plaintext precision over a parameter table, two input seeds a
// row. The last row is fully packed (n = N/2), where Re w and Im w cannot
// share a ciphertext and EvalMod runs on each. Every row also pins the
// pipeline's bookkeeping: the output keeps the input's scale, the levels
// consumed are exactly Depth(), and one bootstrap with a single EvalMod runs
// at most 36 key-switches (the pipeline this one replaced ran 76 at 16
// slots) — a count, so the gate holds on any machine.
func TestBootstrapPrecisionTable(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap test is slow")
	}
	rows := []struct{ logN, logSlots int }{
		{10, 3}, {10, 4}, {10, 5}, {12, 3}, {12, 4}, {12, 5}, {6, 5},
	}
	for _, row := range rows {
		name := fmt.Sprintf("logN=%d/logSlots=%d", row.logN, row.logSlots)
		t.Run(name, func(t *testing.T) {
			params, err := NewParameters(bootstrapLiteral(row.logN, row.logSlots, 3))
			if err != nil {
				t.Fatal(err)
			}
			tc, bt := newBootstrapContext(t, params)
			wantParts := 1
			if row.logSlots == row.logN-1 {
				wantParts = 2
			}
			if len(bt.unpack) != wantParts {
				t.Fatalf("EvalMod would run on %d ciphertexts, want %d", len(bt.unpack), wantParts)
			}
			var bits []float64
			for seed := int64(1); seed <= 2; seed++ {
				values := randomValues(params.Slots(), seed)
				for i := range values {
					values[i] *= 0.5
				}
				ct := exhausted(t, tc, values)
				before := modUps(tc)
				out, err := bt.Bootstrap(ct)
				if err != nil {
					t.Fatal(err)
				}
				if ks := modUps(tc) - before; wantParts == 1 && ks > 36 {
					t.Errorf("one bootstrap ran %d key-switches, want <= 36", ks)
				} else if seed == 1 {
					t.Logf("%d key-switches a bootstrap", ks)
				}
				if used := params.MaxLevel() - out.Level; used != bt.bp.Depth() {
					t.Errorf("bootstrap consumed %d levels, Depth() says %d", used, bt.bp.Depth())
				}
				if math.Abs(out.Scale-ct.Scale) > 1e-12*ct.Scale {
					t.Errorf("output scale %g, want the input's %g", out.Scale, ct.Scale)
				}
				rms, _ := precisionBits(tc.enc.Decode(tc.decr.Decrypt(out)), values)
				bits = append(bits, rms)
			}
			sort.Float64s(bits)
			t.Logf("%s: rms precision min %.2f max %.2f bits", name, bits[0], bits[len(bits)-1])
			if floor := precisionFloors[name]; bits[0] < floor {
				t.Errorf("rms precision %.2f bits, floor is %.1f", bits[0], floor)
			}
		})
	}
}

// modUps is how many key-switch decompositions the context's evaluator has
// run: one per relinearisation, rotation or conjugation, one per hoisted
// rotation group.
func modUps(tc *testContext) uint64 {
	return tc.ob.Snapshot().Histograms["ckks.keyswitch.hybrid.modup_ns"].Count
}

// TestBootstrapConcurrentFirstUse: two goroutines whose first call on a
// fresh context is Bootstrap. The bootstrapper used to fill per-level tables
// on first use without a lock; it is now immutable after construction, so
// under -race this must be clean, and each output byte-identical to a
// sequential run's. make race runs it by name (-short skips it).
func TestBootstrapConcurrentFirstUse(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap test is slow")
	}
	params, err := NewParameters(bootstrapLiteral(10, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	tc, bt := newBootstrapContext(t, params)
	inputs := []*Ciphertext{
		exhausted(t, tc, randomValues(params.Slots(), 1)),
		exhausted(t, tc, randomValues(params.Slots(), 2)),
	}
	serialized := func(ct *Ciphertext) []byte {
		var buf bytes.Buffer
		if err := ct.Serialize(&buf); err != nil {
			t.Error(err)
		}
		return buf.Bytes()
	}

	concurrent := make([][]byte, len(inputs))
	var wg sync.WaitGroup
	for i, in := range inputs {
		wg.Add(1)
		go func(i int, in *Ciphertext) {
			defer wg.Done()
			out, err := bt.Bootstrap(in)
			if err != nil {
				t.Error(err)
				return
			}
			concurrent[i] = serialized(out)
		}(i, in)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, in := range inputs {
		out, err := bt.Bootstrap(in)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(serialized(out), concurrent[i]) {
			t.Errorf("input %d: concurrent first bootstrap differs from the sequential one", i)
		}
	}
}

// The Re/Im packing rotates by n, whose Galois key is the SubSum ladder's
// first rung: the key set a bootstrap needs is what it was before packing.
func TestBootstrapRotationsPinned(t *testing.T) {
	params, err := NewParameters(bootstrapLiteral(12, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	got := BootstrapRotations(params)
	sort.Ints(got)
	want := []int{1, 2, 3, 4, 8, 12, 16, 32, 64, 128, 256, 512, 1024}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("BootstrapRotations = %v, want %v", got, want)
	}
}

func TestBootstrapperValidation(t *testing.T) {
	tc := newTestContext(t)
	// Dense secret: must refuse.
	if _, err := NewBootstrapper(tc.params, tc.enc, tc.eval, DefaultBootstrapParameters()); err == nil {
		t.Error("bootstrapper accepted a dense-secret parameter set")
	}
}

// Depth() is arithmetic on polyLevels; TestBootstrapPrecisionTable checks it
// against the levels a bootstrap consumes, this checks polyLevels against the
// levels a polynomial evaluation consumes, degree by degree.
func TestBootstrapDepthBookkeeping(t *testing.T) {
	bp := DefaultBootstrapParameters()
	if d := bp.Depth(); d != 17 {
		t.Errorf("default bootstrap depth %d, want 17 (3 + 4 seed + 8 squarings + 2)", d)
	}
	tc := newTestContext(t)
	ob := obs.New()
	ev, err := NewEvaluatorOptions(tc.params, tc.keys, EvaluatorOptions{Observer: ob})
	if err != nil {
		t.Fatal(err)
	}
	pt, _ := tc.enc.Encode(randomValues(tc.params.Slots(), 41))
	ct, _ := tc.encr.Encrypt(pt)
	for deg := 1; deg <= 15; deg++ {
		coeffs := make([]float64, deg+1)
		for i := range coeffs {
			coeffs[i] = 0.1
		}
		before := ob.Snapshot().Histograms["ckks.keyswitch.hybrid.modup_ns"].Count
		out, err := ev.EvaluatePoly(ct, Polynomial{Coeffs: coeffs})
		if err != nil {
			t.Fatalf("degree %d: %v", deg, err)
		}
		if used := ct.Level - out.Level; used != polyLevels(deg) {
			t.Errorf("degree %d consumed %d levels, polyLevels says %d", deg, used, polyLevels(deg))
		}
		// x^bs is the last baby power and the first giant, computed once:
		// x², x³, x⁴, x⁸ and two chunk × giant products (it used to be 7).
		if relins := ob.Snapshot().Histograms["ckks.keyswitch.hybrid.modup_ns"].Count - before; deg == 9 && relins != 6 {
			t.Errorf("degree 9 ran %d relinearisations, want 6", relins)
		}
	}
	if _, err := tc.eval.EvaluatePoly(tc.eval.DropLevel(ct, ct.Level-3), Polynomial{Coeffs: make([]float64, 10)}); err == nil {
		t.Error("a degree-9 polynomial was accepted on a 3-level ciphertext")
	}
}

// TestEvaluatePolyExactScales: the Taylor seed of the bootstrap, on an input
// whose scale is 3e-4 off Δ (more than any rescale chain drifts). Every sum
// inside goes through addExact, which refuses operands 1e-13 apart, so
// returning at all shows that every coefficient was quantised at the scale
// that makes its term meet the others; the result must sit on the target to
// float64 rounding and be exp(iθ).
func TestEvaluatePolyExactScales(t *testing.T) {
	tc := newTestContext(t)
	ev := tc.eval
	n := tc.params.Slots()
	a := &Ciphertext{Scale: 1}
	for _, rel := range []float64{1e-12, -1e-12} {
		if _, err := ev.addExact(a, &Ciphertext{Scale: 1 + rel}, poolResult); err == nil {
			t.Fatalf("addExact accepted scales %g apart", rel)
		}
	}

	theta := make([]complex128, n)
	rng := rand.New(rand.NewSource(42))
	for i := range theta {
		theta[i] = complex(rng.Float64()-0.5, 0)
	}
	drifted := tc.params.Scale() * (1 + 3e-4)
	pt, err := tc.enc.EncodeAtLevel(theta, tc.params.MaxLevel(), drifted)
	if err != nil {
		t.Fatal(err)
	}
	ct, _ := tc.encr.Encrypt(pt)
	target := tc.params.Scale() * (1 - 2e-4)
	out, err := ev.evaluatePoly(nil, ct, expTaylor(9), target, heapResult)
	if err != nil {
		t.Fatalf("evaluatePoly: %v", err)
	}
	if math.Abs(out.Scale-target) > 1e-13*target {
		t.Errorf("output scale %g, target %g", out.Scale, target)
	}
	want := make([]complex128, n)
	for i := range want {
		want[i] = cmplx.Exp(complex(0, real(theta[i])))
	}
	if e := maxErr(tc.enc.Decode(tc.decr.Decrypt(out)), want); e > 1e-5 {
		t.Errorf("exp(iθ) seed error %g", e)
	}
}

func TestMulByI(t *testing.T) {
	tc := newTestContext(t)
	v := randomValues(tc.params.Slots(), 43)
	pt, _ := tc.enc.Encode(v)
	ct, _ := tc.encr.Encrypt(pt)
	out, err := tc.eval.mulByI(ct, heapResult)
	if err != nil {
		t.Fatal(err)
	}
	if out.Level != ct.Level || out.Scale != ct.Scale {
		t.Fatalf("mulByI moved level/scale: %d/%g -> %d/%g", ct.Level, ct.Scale, out.Level, out.Scale)
	}
	want := make([]complex128, len(v))
	for i, x := range v {
		want[i] = x * complex(0, 1)
	}
	if e := maxErr(tc.enc.Decode(tc.decr.Decrypt(out)), want); e > 1e-6 {
		t.Fatalf("mulByI error %g", e)
	}
}

func TestModRaisePreservesMessage(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap context is slow to build")
	}
	tc, bt := bootstrapTestContext(t)
	values := make([]complex128, tc.params.Slots())
	for i := range values {
		values[i] = complex(0.25, -0.125)
	}
	ct := exhausted(t, tc, values)

	raised, err := bt.modRaise(ct)
	if err != nil {
		t.Fatal(err)
	}
	if raised.Level != tc.params.MaxLevel() {
		t.Fatalf("modRaise level %d, want %d", raised.Level, tc.params.MaxLevel())
	}
	// Decrypting the raised ciphertext and reducing each coefficient mod q0
	// must recover the message (the q0*I part vanishes mod q0).
	dec := tc.decr.Decrypt(raised)
	rq := tc.params.RingQ().AtLevel(raised.Level)
	poly := dec.Value.Clone()
	rq.INTT(poly)
	// Reduce the first limb (mod q0) and rebuild a level-0 plaintext.
	lvl0 := tc.params.RingQ().AtLevel(0)
	p0 := lvl0.NewPoly()
	copy(p0.Coeffs[0], poly.Coeffs[0])
	lvl0.NTT(p0)
	pt0 := &Plaintext{Value: p0, Level: 0, Scale: ct.Scale}
	got := tc.enc.Decode(pt0)
	if e := maxErr(got, values); e > 1e-3 {
		t.Fatalf("mod-q0 reduction of raised ciphertext lost the message: %g", e)
	}
	if err := raised.validate(tc.params); err != nil {
		t.Fatalf("raised ciphertext invalid: %v", err)
	}
}

// TestModRaiseMatchesBigIntLift pins modRaise's int64 lift bit for bit to
// the arbitrary-precision lift it replaced (centre each residue mod q0 as a
// big.Int, reduce into every limb with SetCoeffBigint).
func TestModRaiseMatchesBigIntLift(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap context is slow to build")
	}
	tc, bt := bootstrapTestContext(t)
	p := tc.params
	ct := exhausted(t, tc, randomValues(p.Slots(), 7))
	raised, err := bt.modRaise(ct)
	if err != nil {
		t.Fatal(err)
	}
	q0 := new(big.Int).SetUint64(p.qChain[0])
	half := new(big.Int).Rsh(q0, 1)
	reference := func(in ring.Poly) ring.Poly {
		tmp := in.Clone()
		p.ringQ.AtLevel(0).INTT(tmp)
		coeffs := make([]*big.Int, p.N())
		for j := range coeffs {
			coeffs[j] = new(big.Int).SetUint64(tmp.Coeffs[0][j])
			if coeffs[j].Cmp(half) > 0 {
				coeffs[j].Sub(coeffs[j], q0)
			}
		}
		out := p.ringQ.NewPoly()
		p.ringQ.SetCoeffBigint(coeffs, out)
		p.ringQ.NTT(out)
		return out
	}
	for name, pair := range map[string][2]ring.Poly{"c0": {raised.C0, reference(ct.C0)}, "c1": {raised.C1, reference(ct.C1)}} {
		for i := range pair[0].Coeffs {
			for j := range pair[0].Coeffs[i] {
				if pair[0].Coeffs[i][j] != pair[1].Coeffs[i][j] {
					t.Fatalf("%s limb %d coefficient %d: %d, big.Int lift gives %d", name, i, j, pair[0].Coeffs[i][j], pair[1].Coeffs[i][j])
				}
			}
		}
	}
}

func TestBootstrapRejectsWrongLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap context is slow to build")
	}
	tc, bt := bootstrapTestContext(t)
	values := make([]complex128, tc.params.Slots())
	pt, _ := tc.enc.Encode(values)
	ct, _ := tc.encr.Encrypt(pt)
	if _, err := bt.Bootstrap(ct); err == nil {
		t.Error("bootstrap accepted a full-level ciphertext")
	}
}
