package ckks

import (
	"testing"
)

// Sparse packing: rotation and conjugation semantics with n << N/2.
func TestSparsePackingOps(t *testing.T) {
	params, err := NewParameters(ParametersLiteral{
		LogN: 9, LogSlots: 3,
		LogQ: []int{50, 36, 36, 36}, LogP: []int{50, 50},
		LogScale: 36, Alpha: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(params)
	kgen := NewKeyGenerator(params)
	sk := kgen.GenSecretKey()
	encr := NewEncryptor(params, kgen.GenPublicKey(sk))
	decr := NewDecryptor(params, sk)
	keys, err := kgen.GenEvaluationKeySet(sk, []KeySwitchMethod{Hybrid}, []int{1, 2, 8, 16, 32, 64, 128}, true)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluatorOptions(params, keys, EvaluatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := params.Slots()
	v := randomValues(n, 77)
	pt, err := enc.Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxErr(enc.Decode(pt), v); e > 1e-6 {
		t.Fatalf("sparse roundtrip error %g", e)
	}
	ct, _ := encr.Encrypt(pt)
	rot, err := ev.RotateWith(ct, 1, Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	got := enc.Decode(decr.Decrypt(rot))
	want := make([]complex128, n)
	for i := range want {
		want[i] = v[(i+1)%n]
	}
	if e := maxErr(got, want); e > 1e-4 {
		t.Fatalf("sparse rotation error %g: got %v want %v", e, got[:3], want[:3])
	}
	// Rotation by n = identity on slots.
	rotN, err := ev.RotateWith(ct, n, Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxErr(enc.Decode(decr.Decrypt(rotN)), v); e > 1e-4 {
		t.Fatalf("rotation by slot count should be identity on sparse packing, error %g", e)
	}
}
