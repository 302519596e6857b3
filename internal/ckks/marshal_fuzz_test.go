package ckks

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"github.com/fastfhe/fast/internal/ring"
)

// FuzzCiphertextMarshal hardens the ciphertext wire format from the inside:
// structurally valid ciphertexts with fuzzed levels, scales and coefficient
// fills must round-trip Serialize → ReadCiphertext losslessly and
// byte-stably (re-serialising the read-back object reproduces the exact
// bytes — the serving layer's bit-exactness checks depend on this), while
// fuzz-mutated wire bytes (byte flips, truncations) must either be rejected
// with an error or decode to something that still passes full validation.
// It complements FuzzReadCiphertext, which fuzzes raw hostile input; this
// target fuzzes the valid-object space and its near-miss neighborhood.
func FuzzCiphertextMarshal(f *testing.F) {
	params, err := TestParameters()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(2, 1.0, int64(42), uint16(3), byte(0xff), uint16(0))
	f.Add(0, 1e12, int64(7), uint16(0), byte(0), uint16(10))
	f.Add(1, 1e-30, int64(-1), uint16(999), byte(1), uint16(65535))

	f.Fuzz(func(t *testing.T, level int, scale float64, seed int64, flipOff uint16, flipXor byte, trunc uint16) {
		if level < 0 {
			level = -level
		}
		level %= params.MaxLevel() + 1
		if !(scale > 0) || math.IsInf(scale, 0) || math.IsNaN(scale) {
			scale = params.Scale()
		}

		// Build a structurally valid ciphertext with pseudo-random residues
		// below each limb modulus.
		rng := rand.New(rand.NewSource(seed))
		n := params.N()
		ct := &Ciphertext{
			C0:    ring.NewPoly(n, level+1),
			C1:    ring.NewPoly(n, level+1),
			Level: level,
			Scale: scale,
		}
		for i := 0; i <= level; i++ {
			q := params.qChain[i]
			for j := 0; j < n; j++ {
				ct.C0.Coeffs[i][j] = rng.Uint64() % q
				ct.C1.Coeffs[i][j] = rng.Uint64() % q
			}
		}

		var buf bytes.Buffer
		if err := ct.Serialize(&buf); err != nil {
			t.Fatalf("serialize valid ciphertext: %v", err)
		}
		back, err := ReadCiphertext(bytes.NewReader(buf.Bytes()), params)
		if err != nil {
			t.Fatalf("round-trip rejected a valid ciphertext (level %d, scale %g): %v", level, scale, err)
		}
		if back.Level != ct.Level || math.Float64bits(back.Scale) != math.Float64bits(ct.Scale) {
			t.Fatalf("metadata drift: level %d/%d scale %x/%x",
				back.Level, ct.Level, math.Float64bits(back.Scale), math.Float64bits(ct.Scale))
		}
		if app := ct.AppendBinary(make([]byte, 0, ct.WireSize())); !bytes.Equal(app, buf.Bytes()) || len(app) != ct.WireSize() {
			t.Fatal("AppendBinary and Serialize disagree on the wire bytes")
		}
		var buf2 bytes.Buffer
		if err := back.Serialize(&buf2); err != nil {
			t.Fatalf("re-serialize: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatal("wire format is not byte-stable across a round-trip")
		}

		// Adversarial neighborhood: flip one byte and/or truncate. The reader
		// must reject or fully validate — never panic, never accept garbage.
		mut := append([]byte(nil), buf.Bytes()...)
		if len(mut) > 0 && flipXor != 0 {
			mut[int(flipOff)%len(mut)] ^= flipXor
		}
		if trunc > 0 {
			mut = mut[:int(trunc)%(len(mut)+1)]
		}
		got, err := ReadCiphertext(bytes.NewReader(mut), params)
		if err == nil {
			if verr := got.validate(params); verr != nil {
				t.Fatalf("reader accepted a mutated ciphertext that fails validation: %v", verr)
			}
		}
		// The from-bytes entry point is the same decoder: it accepts exactly
		// what the stream reader accepts and decodes it to the same object.
		fromBytes, berr := ReadCiphertextBytes(mut, params)
		if (err == nil) != (berr == nil) {
			t.Fatalf("stream reader and from-bytes reader disagree: %v vs %v", err, berr)
		}
		if err == nil && !bytes.Equal(got.AppendBinary(nil), fromBytes.AppendBinary(nil)) {
			t.Fatal("stream reader and from-bytes reader decoded different ciphertexts")
		}
	})
}
