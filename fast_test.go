package fast

import (
	"bytes"
	"math/cmplx"
	"testing"
)

func testCtx(t *testing.T) *Context {
	t.Helper()
	ctx, err := NewContext(DefaultConfig())
	if err != nil {
		t.Fatalf("NewContext: %v", err)
	}
	return ctx
}

func almostEqual(t *testing.T, got, want []complex128, tol float64, what string) {
	t.Helper()
	for i := range want {
		if cmplx.Abs(got[i]-want[i]) > tol {
			t.Fatalf("%s: slot %d: got %v want %v", what, i, got[i], want[i])
		}
	}
}

func TestContextRoundTrip(t *testing.T) {
	ctx := testCtx(t)
	vals := make([]complex128, ctx.Slots())
	for i := range vals {
		vals[i] = complex(float64(i%7)/10, -float64(i%3)/10)
	}
	ct, err := ctx.Encrypt(vals)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Level() != ctx.MaxLevel() {
		t.Errorf("fresh ciphertext level %d, want %d", ct.Level(), ctx.MaxLevel())
	}
	almostEqual(t, ctx.Decrypt(ct), vals, 1e-4, "roundtrip")
}

func TestContextArithmetic(t *testing.T) {
	ctx := testCtx(t)
	n := ctx.Slots()
	a := make([]complex128, n)
	b := make([]complex128, n)
	for i := range a {
		a[i] = complex(0.5, 0.1)
		b[i] = complex(-0.25, 0.3)
	}
	ca, _ := ctx.Encrypt(a)
	cb, _ := ctx.Encrypt(b)

	sum, err := ctx.Add(ca, cb)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, n)
	for i := range want {
		want[i] = a[i] + b[i]
	}
	almostEqual(t, ctx.Decrypt(sum), want, 1e-4, "Add")

	diff, err := ctx.Sub(ca, cb)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		want[i] = a[i] - b[i]
	}
	almostEqual(t, ctx.Decrypt(diff), want, 1e-4, "Sub")

	prod, err := ctx.Mul(ca, cb)
	if err != nil {
		t.Fatal(err)
	}
	if prod.Level() != ca.Level()-1 {
		t.Errorf("Mul should consume one level, got %d", prod.Level())
	}
	for i := range want {
		want[i] = a[i] * b[i]
	}
	almostEqual(t, ctx.Decrypt(prod), want, 1e-4, "Mul")
}

func TestContextPlainOpsAndConstants(t *testing.T) {
	ctx := testCtx(t)
	n := ctx.Slots()
	a := make([]complex128, n)
	p := make([]complex128, n)
	for i := range a {
		a[i] = complex(0.3, -0.2)
		p[i] = complex(0.9, 0.05)
	}
	ca, _ := ctx.Encrypt(a)

	mp, err := ctx.MulPlain(ca, p)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, n)
	for i := range want {
		want[i] = a[i] * p[i]
	}
	almostEqual(t, ctx.Decrypt(mp), want, 1e-4, "MulPlain")

	ap, err := ctx.AddPlain(ca, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		want[i] = a[i] + p[i]
	}
	almostEqual(t, ctx.Decrypt(ap), want, 1e-4, "AddPlain")

	mc, err := ctx.MulConst(ca, -2.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		want[i] = a[i] * complex(-2.5, 0)
	}
	almostEqual(t, ctx.Decrypt(mc), want, 1e-4, "MulConst")

	ac, err := ctx.AddConst(ca, 0.125)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		want[i] = a[i] + 0.125
	}
	almostEqual(t, ctx.Decrypt(ac), want, 1e-4, "AddConst")
}

func TestContextRotationsBothBackends(t *testing.T) {
	ctx := testCtx(t)
	n := ctx.Slots()
	a := make([]complex128, n)
	for i := range a {
		a[i] = complex(float64(i)/float64(n), 0)
	}
	ca, _ := ctx.Encrypt(a)
	for _, m := range []Method{Hybrid, KLSS} {
		rot, err := ctx.Rotate(ca, 2, WithMethod(m))
		if err != nil {
			t.Fatal(err)
		}
		want := make([]complex128, n)
		for i := range want {
			want[i] = a[(i+2)%n]
		}
		almostEqual(t, ctx.Decrypt(rot), want, 1e-4, m.String()+" Rotate")
	}
}

func TestContextHoistedRotations(t *testing.T) {
	ctx := testCtx(t)
	n := ctx.Slots()
	a := make([]complex128, n)
	for i := range a {
		a[i] = complex(float64(i%13)/13, 0)
	}
	ca, _ := ctx.Encrypt(a)
	outs, err := ctx.RotateHoisted(ca, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{1, 2, 4} {
		want := make([]complex128, n)
		for i := range want {
			want[i] = a[(i+r)%n]
		}
		almostEqual(t, ctx.Decrypt(outs[r]), want, 1e-4, "hoisted")
	}
}

func TestContextConjugate(t *testing.T) {
	ctx := testCtx(t)
	n := ctx.Slots()
	a := make([]complex128, n)
	for i := range a {
		a[i] = complex(0.1, 0.7)
	}
	ca, _ := ctx.Encrypt(a)
	conj, err := ctx.Conjugate(ca)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, n)
	for i := range want {
		want[i] = cmplx.Conj(a[i])
	}
	almostEqual(t, ctx.Decrypt(conj), want, 1e-4, "Conjugate")
}

func TestContextValidation(t *testing.T) {
	if _, err := NewContext(ContextConfig{LogN: 11, Levels: 0}); err == nil {
		t.Error("expected error for zero levels")
	}
	cfg := DefaultConfig()
	cfg.EnableKLSS = false
	ctx, err := NewContext(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.SupportsKLSS() {
		t.Error("KLSS should be disabled")
	}
	x := make([]complex128, ctx.Slots())
	cx, _ := ctx.Encrypt(x)
	if _, err := ctx.Rotate(cx, 1, WithMethod(KLSS)); err == nil {
		t.Error("expected error selecting disabled backend per call")
	}
}

func TestMethodString(t *testing.T) {
	if Hybrid.String() != "hybrid" || KLSS.String() != "klss" {
		t.Error("method names")
	}
}

func TestSimulateFacade(t *testing.T) {
	rep, err := Simulate(BootstrapWorkload(), FASTAccelerator(), PlanAuto)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TimeMS <= 0 || rep.Accelerator != "FAST" || rep.Workload != "Bootstrap" {
		t.Fatalf("report: %+v", rep)
	}
	if rep.KLSSCycles == 0 {
		t.Error("FAST with Aether should run some KLSS key-switches")
	}
	one, err := Simulate(BootstrapWorkload(), FASTAccelerator(), PlanOneKSW)
	if err != nil {
		t.Fatal(err)
	}
	if one.KLSSCycles != 0 {
		t.Error("OneKSW plan must not use KLSS")
	}
	if one.TimeMS <= rep.TimeMS*0.99 {
		t.Errorf("Aether (%.3f) should not lose to OneKSW (%.3f)", rep.TimeMS, one.TimeMS)
	}
}

func TestSimulateUnknownMode(t *testing.T) {
	if _, err := Simulate(BootstrapWorkload(), FASTAccelerator(), PlanMode(42)); err == nil {
		t.Error("expected error for unknown mode")
	}
}

func TestPlanWorkloadSerialises(t *testing.T) {
	plan, err := PlanWorkload(BootstrapWorkload(), FASTAccelerator())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := plan.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("empty config file")
	}
}

func TestAcceleratorAccessors(t *testing.T) {
	f := FASTAccelerator()
	if f.Name() != "FAST" || f.AreaMM2() < 200 || f.PeakPowerW() < 200 {
		t.Errorf("FAST accessors: %s %.1f %.1f", f.Name(), f.AreaMM2(), f.PeakPowerW())
	}
	if f.WithClusters(8).Config().Clusters != 8 {
		t.Error("WithClusters")
	}
	if f.WithOnChipMB(100).Config().OnChipMB != 100 {
		t.Error("WithOnChipMB")
	}
	if len(Published()) < 8 {
		t.Error("missing published baselines")
	}
	if BootstrapWorkload().KeySwitches() == 0 {
		t.Error("bootstrap workload has no key-switches")
	}
	if HELRWorkload(1024).Name() != "HELR1024" || ResNet20Workload().Name() != "ResNet-20" {
		t.Error("workload names")
	}
}
