package fast_test

import (
	"bytes"
	"errors"
	"math"
	"testing"

	fast "github.com/fastfhe/fast"
)

// The typed error taxonomy must be matchable with errors.Is at the public
// boundary, and no public entry point may panic on malformed input — the
// panic sites that remain in internal packages are documented INVARIANT
// checks unreachable from here.

func errCtx(t *testing.T) *fast.Context {
	t.Helper()
	ctx, err := fast.NewContext(fast.ContextConfig{
		LogN:      9,
		Levels:    2,
		LogScale:  36,
		Rotations: []int{1},
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func TestTypedErrorsWithErrorsIs(t *testing.T) {
	ctx := errCtx(t)
	ct, err := ctx.Encrypt([]complex128{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("invalid parameters", func(t *testing.T) {
		if _, err := fast.NewContext(fast.ContextConfig{LogN: 9, Levels: 0}); !errors.Is(err, fast.ErrInvalidParameters) {
			t.Errorf("Levels 0: got %v, want ErrInvalidParameters", err)
		}
		if _, err := fast.NewContext(fast.ContextConfig{LogN: 99, Levels: 2}); !errors.Is(err, fast.ErrInvalidParameters) {
			t.Errorf("LogN 99: got %v, want ErrInvalidParameters", err)
		}
		if _, err := fast.NewContext(fast.ContextConfig{LogN: 9, LogSlots: 12, Levels: 2}); !errors.Is(err, fast.ErrInvalidParameters) {
			t.Errorf("LogSlots > LogN-1: got %v, want ErrInvalidParameters", err)
		}
	})

	t.Run("method unavailable", func(t *testing.T) {
		// KLSS runs only where a pin or the plan puts it. On a context
		// without KLSS keys a program pin fails when the plan is compiled,
		// and a per-call pin fails at the op.
		klss := fast.WithMethod(fast.KLSS)
		plan := func(p *fast.Program) error {
			_, err := ctx.Plan(p.Return("out"), nil)
			return err
		}
		for name, call := range map[string]func() error{
			"Plan(mul klss)":       func() error { return plan(fast.NewProgram().In("x").Mul("out", "x", "x", klss)) },
			"Plan(rotate klss)":    func() error { return plan(fast.NewProgram().In("x").Rotate("out", "x", 1, klss)) },
			"Plan(conjugate klss)": func() error { return plan(fast.NewProgram().In("x").Conjugate("out", "x", klss)) },
			"Mul":                  func() error { _, err := ctx.Mul(ct, ct, klss); return err },
			"Rotate":               func() error { _, err := ctx.Rotate(ct, 1, klss); return err },
			"RotateHoisted":        func() error { _, err := ctx.RotateHoisted(ct, []int{1}, klss); return err },
			"Conjugate":            func() error { _, err := ctx.Conjugate(ct, klss); return err },
		} {
			t.Run(name, func(t *testing.T) {
				if err := call(); !errors.Is(err, fast.ErrMethodUnavailable) {
					t.Errorf("got %v, want ErrMethodUnavailable", err)
				}
			})
		}
	})

	t.Run("key missing", func(t *testing.T) {
		if _, err := ctx.Rotate(ct, 5); !errors.Is(err, fast.ErrKeyMissing) {
			t.Errorf("ungenerated rotation: got %v, want ErrKeyMissing", err)
		}
		if _, err := ctx.Conjugate(ct); !errors.Is(err, fast.ErrKeyMissing) {
			t.Errorf("no conjugation key: got %v, want ErrKeyMissing", err)
		}
	})

	t.Run("level exhausted", func(t *testing.T) {
		bottom := ct
		var err error
		for bottom.Level() > 0 {
			if bottom, err = ctx.Mul(bottom, bottom); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ctx.Rescale(bottom); !errors.Is(err, fast.ErrLevelExhausted) {
			t.Errorf("rescale at level 0: got %v, want ErrLevelExhausted", err)
		}
		// Mul rescales internally, so it too runs out of levels.
		if _, err := ctx.Mul(bottom, bottom); !errors.Is(err, fast.ErrLevelExhausted) {
			t.Errorf("mul at level 0: got %v, want ErrLevelExhausted", err)
		}
	})

	t.Run("scale mismatch", func(t *testing.T) {
		scaled, err := ctx.MulConst(ct, 2.0, fast.NoRescale()) // scale Δ²
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ctx.Add(ct, scaled); !errors.Is(err, fast.ErrScaleMismatch) {
			t.Errorf("Add across scales: got %v, want ErrScaleMismatch", err)
		}
		if _, err := ctx.Sub(ct, scaled); !errors.Is(err, fast.ErrScaleMismatch) {
			t.Errorf("Sub across scales: got %v, want ErrScaleMismatch", err)
		}
	})

	t.Run("slot count mismatch", func(t *testing.T) {
		too := make([]complex128, ctx.Slots()+1)
		if _, err := ctx.Encrypt(too); !errors.Is(err, fast.ErrSlotCountMismatch) {
			t.Errorf("oversized encrypt: got %v, want ErrSlotCountMismatch", err)
		}
		if _, err := ctx.MulPlain(ct, too); !errors.Is(err, fast.ErrSlotCountMismatch) {
			t.Errorf("oversized MulPlain: got %v, want ErrSlotCountMismatch", err)
		}
	})

	t.Run("invalid value", func(t *testing.T) {
		if _, err := ctx.MulConst(ct, math.NaN()); !errors.Is(err, fast.ErrInvalidValue) {
			t.Errorf("NaN constant: got %v, want ErrInvalidValue", err)
		}
		if _, err := ctx.AddConst(ct, math.Inf(1)); !errors.Is(err, fast.ErrInvalidValue) {
			t.Errorf("Inf constant: got %v, want ErrInvalidValue", err)
		}
	})

	t.Run("invalid ciphertext", func(t *testing.T) {
		if _, err := ctx.Add(nil, ct); !errors.Is(err, fast.ErrInvalidCiphertext) {
			t.Errorf("nil operand: got %v, want ErrInvalidCiphertext", err)
		}
		// A ciphertext from a different ring degree violates the invariants.
		other := errCtxLogN(t, 10)
		foreign, err := other.Encrypt([]complex128{1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ctx.Mul(ct, foreign); !errors.Is(err, fast.ErrInvalidCiphertext) {
			t.Errorf("foreign ciphertext: got %v, want ErrInvalidCiphertext", err)
		}
	})
}

// TestCiphertextWireErrorsTyped: every way ciphertext wire bytes can be
// malformed — the object's wrong tag or version, a component poly's wrong
// tag, version or shape, a cut anywhere — is refused by both decode entry
// points with an error wrapping ErrInvalidCiphertext.
func TestCiphertextWireErrorsTyped(t *testing.T) {
	ctx := errCtx(t)
	ct, err := ctx.Encrypt([]complex128{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	wire := ct.AppendBinary(nil)
	// The polys' headers: after the 14-byte level/scale head, and after c0's
	// 10-byte header and 3 limbs × 512 words (errCtx: Levels 2, LogN 9).
	const c0At, c1At = 14, 14 + 10 + 3*512*8
	edit := func(at int, v byte) []byte {
		b := bytes.Clone(wire)
		b[at] = v
		return b
	}
	for _, tc := range []struct {
		name string
		wire []byte
	}{
		{"empty", nil},
		{"wrong tag", edit(0, 0x05)},
		{"wrong version", edit(1, 9)},
		{"head cut", wire[:10]},
		{"c0 wrong tag", edit(c0At, 0x02)},
		{"c0 wrong version", edit(c0At+1, 0)},
		{"c0 implausible shape", edit(c0At+2, 0)},
		{"c0 cut", wire[:c0At+10+100]},
		{"c1 wrong tag", edit(c1At, 0x07)},
		{"c1 header cut", wire[:c1At+4]},
		{"c1 cut", wire[:len(wire)-1]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ctx.ReadCiphertextBytes(tc.wire); !errors.Is(err, fast.ErrInvalidCiphertext) {
				t.Errorf("ReadCiphertextBytes: %v, want ErrInvalidCiphertext", err)
			}
			if _, err := ctx.ReadCiphertext(bytes.NewReader(tc.wire)); !errors.Is(err, fast.ErrInvalidCiphertext) {
				t.Errorf("ReadCiphertext: %v, want ErrInvalidCiphertext", err)
			}
		})
	}
	if _, err := ctx.ReadCiphertextBytes(wire); err != nil {
		t.Fatalf("the unedited wire: %v", err)
	}
}

func errCtxLogN(t *testing.T, logN int) *fast.Context {
	t.Helper()
	ctx, err := fast.NewContext(fast.ContextConfig{LogN: logN, Levels: 2, LogScale: 36, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

// TestPublicAPINeverPanics drives every Context entry point with malformed
// inputs and asserts they refuse with an error (or a nil result) instead of
// panicking.
func TestPublicAPINeverPanics(t *testing.T) {
	ctx := errCtx(t)
	ct, err := ctx.Encrypt([]complex128{1})
	if err != nil {
		t.Fatal(err)
	}
	var nilCt *fast.Ciphertext

	calls := map[string]func() error{
		"Add(nil,nil)":        func() error { _, err := ctx.Add(nilCt, nilCt); return err },
		"Sub(nil,ct)":         func() error { _, err := ctx.Sub(nilCt, ct); return err },
		"Mul(ct,nil)":         func() error { _, err := ctx.Mul(ct, nilCt); return err },
		"MulPlain(nil)":       func() error { _, err := ctx.MulPlain(nilCt, []complex128{1}); return err },
		"AddPlain(nil)":       func() error { _, err := ctx.AddPlain(nilCt, []complex128{1}); return err },
		"MulConst(nil)":       func() error { _, err := ctx.MulConst(nilCt, 2); return err },
		"AddConst(nil)":       func() error { _, err := ctx.AddConst(nilCt, 2); return err },
		"Rescale(nil)":        func() error { _, err := ctx.Rescale(nilCt); return err },
		"Rotate(nil)":         func() error { _, err := ctx.Rotate(nilCt, 1); return err },
		"RotateHoisted(nil)":  func() error { _, err := ctx.RotateHoisted(nilCt, []int{1}); return err },
		"Conjugate(nil)":      func() error { _, err := ctx.Conjugate(nilCt); return err },
		"Encrypt(oversized)":  func() error { _, err := ctx.Encrypt(make([]complex128, 1<<20)); return err },
		"MulConst(ct,NaN)":    func() error { _, err := ctx.MulConst(ct, math.NaN()); return err },
		"Rotate(ct,unkeyed)":  func() error { _, err := ctx.Rotate(ct, 12345); return err },
		"Mul(ct,ct,klss)":     func() error { _, err := ctx.Mul(ct, ct, fast.WithMethod(fast.KLSS)); return err },
		"NewContext(LogN=-1)": func() error { _, err := fast.NewContext(fast.ContextConfig{LogN: -1, Levels: 1}); return err },
	}
	for name, call := range calls {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s panicked: %v", name, r)
				}
			}()
			if err := call(); err == nil {
				t.Errorf("%s accepted malformed input", name)
			}
		})
	}

	// Non-error-returning entry points degrade gracefully.
	t.Run("Decrypt(nil)", func(t *testing.T) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Decrypt(nil) panicked: %v", r)
			}
		}()
		if got := ctx.Decrypt(nilCt); got != nil {
			t.Errorf("Decrypt(nil) = %v, want nil", got)
		}
		if nilCt.Level() != -1 || nilCt.Scale() != 0 {
			t.Error("nil ciphertext accessors must return sentinels")
		}
	})
}
