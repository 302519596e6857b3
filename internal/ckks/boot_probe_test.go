package ckks

import (
	"math"
	"math/big"
	"testing"
)

func absc(x complex128) float64 {
	re, im := real(x), imag(x)
	if re < 0 {
		re = -re
	}
	if im < 0 {
		im = -im
	}
	if re > im {
		return re
	}
	return im
}

// precisionBits returns -log2 of the rms and of the worst per-slot error
// (the larger of the real and imaginary parts).
func precisionBits(got, want []complex128) (rms, worst float64) {
	var sum, maxE float64
	for i := range want {
		e := absc(got[i] - want[i])
		sum += e * e
		maxE = math.Max(maxE, e)
	}
	return -math.Log2(math.Sqrt(sum / float64(len(want)))), -math.Log2(maxE)
}

// foldedSlots runs ModRaise and SubSum on a level-0 encryption of values and
// returns the folded ciphertext with w, the complex vector CoeffToSlot must
// put into the slots: the gap-coefficient pairs of the folded plaintext.
func foldedSlots(t *testing.T, tc *testContext, bt *Bootstrapper, values []complex128) (*Ciphertext, []complex128) {
	t.Helper()
	p := tc.params
	n := p.Slots()
	gap := (p.N() / 2) / n
	raised, err := bt.modRaise(exhausted(t, tc, values))
	if err != nil {
		t.Fatal(err)
	}
	folded, err := bt.subSum(nil, raised)
	if err != nil {
		t.Fatal(err)
	}
	dec := tc.decr.Decrypt(folded)
	rq := p.RingQ().AtLevel(folded.Level)
	poly := dec.Value.Clone()
	rq.INTT(poly)
	coeffs := make([]*big.Int, p.N())
	rq.PolyToBigintCentered(poly, coeffs)
	w := make([]complex128, n)
	for j := range w {
		w[j] = complex(bigToFloat(coeffs[j*gap])/dec.Scale, bigToFloat(coeffs[j*gap+p.N()/2])/dec.Scale)
	}
	return folded, w
}

func stageValues(n int) []complex128 {
	values := make([]complex128, n)
	for i := range values {
		values[i] = complex(0.4*float64(i%3-1), 0.3*float64(i%2))
	}
	return values
}

// modReduced is what EvalMod and the unpack mask make of a slot holding x at
// the bootstrap input's scale: x reduced modulo q0*fold/scale into the
// centred interval, divided by fold.
func modReduced(p *Parameters, x float64) float64 {
	fold := float64(p.N()) / float64(2*p.Slots())
	period := float64(p.QChain()[0]) * fold / p.Scale()
	return (x - period*math.Round(x/period)) / fold
}

// Probe: after SubSum + CoeffToSlot the 2n slots of the packed ciphertext
// must hold (Re w ‖ Im w), w being the gap-coefficient pairs of the folded
// polynomial divided by the scale.
func TestCoeffToSlotProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tc, bt := bootstrapTestContext(t)
	n := tc.params.Slots()
	values := make([]complex128, n)
	for i := range values {
		values[i] = complex(0.3, -0.2)
	}
	folded, w := foldedSlots(t, tc, bt, values)
	parts, err := bt.coeffToSlot(nil, folded)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 1 {
		t.Fatalf("16 of 2048 slots must pack into one ciphertext, got %d", len(parts))
	}
	got := bt.wide.Decode(tc.decr.Decrypt(parts[0]))
	want := make([]complex128, 2*n)
	for j := range w {
		want[j], want[n+j] = complex(real(w[j]), 0), complex(imag(w[j]), 0)
	}
	t.Logf("got[0], got[n]   = %v, %v", got[0], got[n])
	t.Logf("want[0], want[n] = %v, %v", want[0], want[n])
	// The slots hold q0-multiples of ~2^20; the angle they become is
	// amplified by 2^15 on the way out, so they must be right to ~2^-18
	// after the fold is divided out.
	fold := float64(tc.params.N()) / float64(2*n)
	if e := maxErr(got, want) / fold; e > 1e-5 {
		t.Fatalf("CtS probe error %g of the fold", e)
	}
}

// Probe: EvalMod alone on synthetic slots fold*(m + (q0/Δ)*I), unpacked by
// hand: Im(z - conj z)/2 * q0/(2πΔ) must be m to 18 bits.
func TestEvalModProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tc, bt := bootstrapTestContext(t)
	p := tc.params
	n := 2 * p.Slots()
	q0OverDelta := float64(p.QChain()[0]) / p.Scale()
	fold := float64(p.N()) / float64(n)

	msg := make([]complex128, n)
	want := make([]complex128, n)
	for i := range msg {
		m := 0.3 - 0.05*float64(i%5)
		I := float64(i%7 - 3) // integers in [-3,3]
		msg[i] = complex(fold*(m+q0OverDelta*I), 0)
		want[i] = complex(m, 0)
	}
	pt, err := bt.wide.EncodeAtLevel(msg, p.MaxLevel()-2, p.Scale())
	if err != nil {
		t.Fatal(err)
	}
	ct, _ := tc.encr.Encrypt(pt)
	out, err := bt.evalMod(nil, ct, p.Scale())
	if err != nil {
		t.Fatal(err)
	}
	got := bt.wide.Decode(tc.decr.Decrypt(out))
	a := q0OverDelta / (2 * math.Pi)
	for i, d := range got {
		if math.Abs(real(d)) > 1e-6 {
			t.Fatalf("slot %d: z - conj(z) has real part %g", i, real(d))
		}
		got[i] = complex(imag(d)/2*a, 0)
	}
	rms, worst := precisionBits(got, want)
	t.Logf("EvalMod: %.2f bits rms, %.2f worst", rms, worst)
	if rms < 18 {
		t.Fatalf("EvalMod probe: %.2f bits rms, want >= 18", rms)
	}
}

// Probe: pack, EvalMod, unpack and SlotToCoeff, stage by stage against
// plaintext references.
func TestBootstrapStageProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tc, bt := bootstrapTestContext(t)
	p := tc.params
	n := p.Slots()
	values := stageValues(n)
	folded, w := foldedSlots(t, tc, bt, values)

	parts, err := bt.coeffToSlot(nil, folded)
	if err != nil {
		t.Fatal(err)
	}
	packed := bt.wide.Decode(tc.decr.Decrypt(parts[0]))
	for j := range w {
		if absc(packed[j]-complex(real(w[j]), 0)) > 1e-3 || absc(packed[n+j]-complex(imag(w[j]), 0)) > 1e-3 {
			t.Fatalf("packed slots %d, %d: %v, %v, want Re and Im of %v", j, n+j, packed[j], packed[n+j], w[j])
		}
	}
	t.Log("pack OK")

	if parts[0], err = bt.evalMod(nil, parts[0], p.Scale()); err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, n)
	for j := range w {
		want[j] = complex(modReduced(p, real(w[j])), modReduced(p, imag(w[j])))
	}
	d := bt.wide.Decode(tc.decr.Decrypt(parts[0]))
	a := float64(p.QChain()[0]) / (2 * math.Pi * p.Scale())
	got := make([]complex128, n)
	for j := range got {
		got[j] = complex(imag(d[j])/2*a, imag(d[n+j])/2*a)
	}
	rms, worst := precisionBits(got, want)
	t.Logf("EvalMod stage: %.2f bits rms, %.2f worst", rms, worst)
	if rms < 18 {
		t.Fatalf("EvalMod stage: %.2f bits rms, want >= 18", rms)
	}

	slots, err := bt.unpackSlots(nil, parts)
	if err != nil {
		t.Fatal(err)
	}
	unpacked := bt.wide.Decode(tc.decr.Decrypt(slots))
	if e := maxErr(unpacked[:n], unpacked[n:]); e > 1e-5 {
		t.Fatalf("unpacked slots are not n-periodic: halves differ by %g", e)
	}
	if rms, _ := precisionBits(unpacked[:n], want); rms < 17 {
		t.Fatalf("unpack stage: %.2f bits rms, want >= 17", rms)
	}
	t.Log("unpack OK")

	out, err := bt.slotToCoeff(nil, parts)
	if err != nil {
		t.Fatal(err)
	}
	final := tc.enc.Decode(tc.decr.Decrypt(out))
	rms, worst = precisionBits(final, values)
	t.Logf("SlotToCoeff stage: %.2f bits rms, %.2f worst", rms, worst)
	if rms < 13 {
		t.Fatalf("SlotToCoeff stage: %.2f bits rms, want >= 13", rms)
	}
}

// The SubSum trace fixes the gap monomials, so the q0-multiples reaching
// EvalMod must be exact multiples of fold = N/(2n) — the structural
// invariant the effective modulus q0*fold in evalMod relies on.
func TestTraceMultiplesOfFold(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tc, bt := bootstrapTestContext(t)
	p := tc.params
	folded, _ := foldedSlots(t, tc, bt, stageValues(p.Slots()))
	parts, err := bt.coeffToSlot(nil, folded)
	if err != nil {
		t.Fatal(err)
	}
	q0A := float64(p.QChain()[0]) / p.Scale()
	fold := float64(p.N()) / float64(2*p.Slots())
	nonzero := 0
	for i, x := range bt.wide.Decode(tc.decr.Decrypt(parts[0])) {
		T := math.Round(real(x) / q0A)
		if math.Mod(math.Abs(T), fold) != 0 {
			t.Fatalf("slot %d: q0-multiple T=%g is not a multiple of fold=%g", i, T, fold)
		}
		if T != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("no slot carries a q0-multiple: the probe checked nothing")
	}
}
