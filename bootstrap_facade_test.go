package fast

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"math/cmplx"
	"reflect"
	"testing"
)

func TestBootstrapContext(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrapping is slow")
	}
	ctx, err := NewBootstrapContext(BootstrapContextConfig{})
	if err != nil {
		t.Fatalf("NewBootstrapContext: %v", err)
	}
	values := make([]complex128, ctx.Slots())
	for i := range values {
		values[i] = complex(0.4*math.Sin(float64(i)), 0.2)
	}
	ct, err := ctx.Encrypt(values)
	if err != nil {
		t.Fatal(err)
	}
	exhausted := ctx.ExhaustLevels(ct)
	if exhausted.Level() != 0 {
		t.Fatalf("ExhaustLevels left level %d", exhausted.Level())
	}
	refreshed, err := ctx.Bootstrap(exhausted)
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	if refreshed.Level() < 1 {
		t.Fatalf("no levels restored: %d", refreshed.Level())
	}
	got := ctx.Decrypt(refreshed)
	for i := range values {
		if e := cmplx.Abs(got[i] - values[i]); e > 5e-3 {
			t.Fatalf("slot %d error %g", i, e)
		}
	}
}

func TestBootstrapContextValidation(t *testing.T) {
	if _, err := NewBootstrapContext(BootstrapContextConfig{Levels: 5}); err == nil {
		t.Error("expected error for too-shallow chain")
	}
}

// bootstrapTestContext is the smallest bootstrap regime: one bootstrap
// consumes all 17 levels.
func bootstrapTestContext(t *testing.T) *BootstrapContext {
	t.Helper()
	bc, err := NewBootstrapContext(BootstrapContextConfig{LogN: 10, Levels: 17})
	if err != nil {
		t.Fatalf("NewBootstrapContext: %v", err)
	}
	return bc
}

// TestBootstrapContextIsAContext: a bootstrap context comes off the same
// build path as any other, so everything a Context promises holds — a
// truthful Config, planned execution over its own rotation keys, and a typed
// refusal (not a nil dereference) from the one thing its regime cannot do.
func TestBootstrapContextIsAContext(t *testing.T) {
	bc := bootstrapTestContext(t)
	want := ContextConfig{
		LogN: 10, LogSlots: 4, Levels: 17, LogScale: 40,
		Rotations:   []int{1, 2, 3, 4, 8, 12, 16, 32, 64, 128, 256},
		Conjugation: true, Seed: 3,
	}
	if got := bc.Config(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Config() = %+v, want %+v", got, want)
	}
	if bc.SupportsKLSS() {
		t.Fatal("bootstrap regime is hybrid-only, but the context supports KLSS")
	}

	values := make([]complex128, bc.Slots())
	for i := range values {
		values[i] = complex(float64(i), 0)
	}
	ct, err := bc.Encrypt(values)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := bc.Plan(NewProgram().In("x").Rotate("out", "x", 12).Return("out"), nil)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	out, err := bc.Execute(context.Background(), plan, map[string]*Ciphertext{"x": ct})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	got := bc.Decrypt(out)
	for i := range values {
		if e := cmplx.Abs(got[i] - values[(i+12)%len(values)]); e > 1e-4 {
			t.Fatalf("slot %d: got %v, error %g", i, got[i], e)
		}
	}

	if err := bc.WriteSessionSnapshot(io.Discard, SessionMeta{ID: "b"}); !errors.Is(err, ErrInvalidParameters) {
		t.Fatalf("WriteSessionSnapshot on a bootstrap context: got %v, want ErrInvalidParameters", err)
	}
}

// TestBootstrapGoldenBytes pins encrypt → ExhaustLevels → Bootstrap →
// Serialize for the default seed. The digest was recorded on the commit
// before NewBootstrapContext moved onto the shared build path, with one line
// added there: ckks.BootstrapRotations sorted, because until then key
// generation followed map iteration order and no two constructions agreed.
// It was re-captured once when each evaluation key came to be drawn from a
// stream of its own, on its first use: the keys' bytes changed, the secret,
// the public key and the encryption did not. It was re-captured once more,
// with one digest on all three kernel paths, when each Galois key came to
// switch s to φ⁻¹(s) so that a rotation permutes its key product instead of
// its digits: the Galois keys' bytes changed, nothing else did.
func TestBootstrapGoldenBytes(t *testing.T) {
	bc := bootstrapTestContext(t)
	values := make([]complex128, bc.Slots())
	for i := range values {
		values[i] = complex(float64(i%5)/8-0.25, float64(i%3)/8-0.125)
	}
	ct, err := bc.Encrypt(values)
	if err != nil {
		t.Fatal(err)
	}
	out, err := bc.Bootstrap(bc.ExhaustLevels(ct))
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	raw := ctBytes(t, out)
	const wantLen, wantSum = 16418, "458580931b2e3fbdff6b411277d03558a98536840e7eb37177472d156438f321"
	if got := fmt.Sprintf("%x", sha256.Sum256(raw)); len(raw) != wantLen || got != wantSum {
		t.Fatalf("bootstrap output changed: len %d sha256 %s, want len %d sha256 %s", len(raw), got, wantLen, wantSum)
	}
}
