package ckks

import (
	"bytes"
	"math"
	"testing"
)

// FuzzReadCiphertext hardens the deserialiser against malformed inputs: it
// must never panic, only return errors (or round-trip valid data).
func FuzzReadCiphertext(f *testing.F) {
	params, err := TestParameters()
	if err != nil {
		f.Fatal(err)
	}
	enc := NewEncoder(params)
	kgen := NewKeyGenerator(params)
	sk := kgen.GenSecretKey()
	encryptor := NewEncryptor(params, kgen.GenPublicKey(sk))
	pt, _ := enc.Encode(make([]complex128, params.Slots()))
	ct, _ := encryptor.Encrypt(pt)
	var buf bytes.Buffer
	ct.Serialize(&buf)
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x02, 0x01, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadCiphertext(bytes.NewReader(data), params)
		if err == nil {
			if verr := got.validate(params); verr != nil {
				t.Fatalf("accepted invalid ciphertext: %v", verr)
			}
		}
		// Hostile bytes get the same verdict from the from-bytes decoder.
		if _, berr := ReadCiphertextBytes(data, params); (err == nil) != (berr == nil) {
			t.Fatalf("stream reader and from-bytes reader disagree: %v vs %v", err, berr)
		}
	})
}

// FuzzEncodeDecode hardens the encoder boundary: EncodeAtLevel must reject
// malformed shapes/levels/scales with typed errors — never panic — and
// whatever it accepts must decode back to finite values.
func FuzzEncodeDecode(f *testing.F) {
	params, err := TestParameters()
	if err != nil {
		f.Fatal(err)
	}
	enc := NewEncoder(params)
	f.Add(0.5, -0.25, 1, params.Scale(), 4)
	f.Add(1e300, 1e300, 0, 1.0, 1)
	f.Add(math.NaN(), math.Inf(1), -1, -3.5, 8)
	f.Add(0.0, 0.0, 99, 0.0, 0)

	f.Fuzz(func(t *testing.T, re, im float64, level int, scale float64, n int) {
		if n < 0 {
			n = -n
		}
		n %= 2*params.Slots() + 3 // straddle the slot-count boundary
		values := make([]complex128, n)
		for i := range values {
			values[i] = complex(re, im)
		}
		pt, err := enc.EncodeAtLevel(values, level, scale)
		if err != nil {
			return // rejected: fine, as long as it did not panic
		}
		dec := enc.Decode(pt)
		if len(dec) != params.Slots() {
			t.Fatalf("decoded %d values, want %d slots", len(dec), params.Slots())
		}
		for i, v := range dec {
			if math.IsNaN(real(v)) || math.IsNaN(imag(v)) {
				t.Fatalf("accepted encode decoded to NaN at slot %d (in: %g%+gi, level %d, scale %g)",
					i, re, im, level, scale)
			}
		}
	})
}
