package ckks

import (
	"bytes"
	"errors"
	"testing"

	"github.com/fastfhe/fast/internal/obs"
	"github.com/fastfhe/fast/internal/ring"
)

// TestDerivedKLSSKeysMatchEager: a set generated with hybrid keys only and
// DeriveKLSS attached hands out, key for key, the bytes GenEvaluationKeySet
// generates eagerly for KLSS — whatever order the methods were asked in —
// and its hybrid keys are the ones a set with eager KLSS keys holds. A
// rotation the hybrid section lacks is missing for KLSS too, and nothing is
// derived before the first KLSS lookup.
func TestDerivedKLSSKeysMatchEager(t *testing.T) {
	params, err := TestParameters()
	if err != nil {
		t.Fatal(err)
	}
	rotations := []int{4, 1, -1, 1} // out of order, one repeated
	gen := func(methods ...KeySwitchMethod) (*SecretKey, *EvaluationKeySet) {
		kg := NewKeyGenerator(params)
		sk := kg.GenSecretKey()
		kg.GenPublicKey(sk)
		set, err := kg.GenEvaluationKeySet(sk, methods, rotations, true)
		if err != nil {
			t.Fatal(err)
		}
		return sk, set
	}
	_, eager := gen(Hybrid, KLSS)
	_, klssFirst := gen(KLSS, Hybrid)
	sk, derived := gen(Hybrid)
	if !bytes.Equal(derived.AppendBinary(nil), section(eager, Hybrid)) {
		t.Fatal("the hybrid keys moved when KLSS keys were generated with them")
	}
	if !bytes.Equal(eager.AppendBinary(nil), klssFirst.AppendBinary(nil)) {
		t.Fatal("eager key sets differ with the order their methods were asked in")
	}
	ob := obs.New()
	draws := ob.Reg().Counter("ckks.sampler.draws")
	derived.DeriveKLSS(params, sk, ob)
	if _, err := derived.RelinKey(Hybrid); err != nil || draws.Value() != 0 {
		t.Fatalf("a hybrid lookup (err %v) drew %d polynomials: KLSS keys were derived before the first KLSS lookup", err, draws.Value())
	}

	galEls := eager.galoisElements(KLSS)
	if len(galEls) != 4 {
		t.Fatalf("eager KLSS section has %d Galois keys, want 4 (3 distinct rotations + conjugation)", len(galEls))
	}
	want, err := eager.RelinKey(KLSS)
	if err != nil {
		t.Fatal(err)
	}
	got, err := derived.RelinKey(KLSS)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.AppendBinary(nil), want.AppendBinary(nil)) {
		t.Fatal("derived KLSS relinearization key differs from the eager one")
	}
	for _, el := range galEls {
		want, err := eager.GaloisKey(KLSS, el)
		if err != nil {
			t.Fatal(err)
		}
		got, err := derived.GaloisKey(KLSS, el)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.AppendBinary(nil), want.AppendBinary(nil)) {
			t.Fatalf("derived KLSS Galois key %d differs from the eager one", el)
		}
	}
	if _, err := derived.GaloisKey(KLSS, ring.GaloisElementForRotation(params.LogN(), 2)); !errors.Is(err, ErrKeyMissing) {
		t.Fatalf("KLSS key for an ungenerated rotation: %v, want ErrKeyMissing", err)
	}
	if !bytes.Equal(derived.AppendBinary(nil), section(eager, Hybrid)) {
		t.Fatal("the derived KLSS section reached the set's wire form")
	}
	if want := uint64(2 * 5 * len(want.B)); draws.Value() != want { // relin + 4 Galois keys, 2 draws per group
		t.Fatalf("the derivation drew %d polynomials, want %d", draws.Value(), want)
	}
}

// section is the wire form of a set holding only method m's keys of s.
func section(s *EvaluationKeySet, m KeySwitchMethod) []byte {
	one := NewEvaluationKeySet()
	one.Relin[m] = s.Relin[m]
	one.Galois[m] = s.Galois[m]
	return one.AppendBinary(nil)
}

// TestDeriveKLSSLeavesStoredKeysAlone: DeriveKLSS attaches nothing to a set
// that holds KLSS keys, or when the parameter set has no KLSS chain.
func TestDeriveKLSSLeavesStoredKeysAlone(t *testing.T) {
	tc := newTestContext(t)
	set, _, err := ParseEvaluationKeySet(tc.keys.AppendBinary(nil), tc.params)
	if err != nil {
		t.Fatal(err)
	}
	set.DeriveKLSS(tc.params, tc.sk, nil)
	if set.klss != nil {
		t.Fatal("DeriveKLSS attached a derivation to a set holding KLSS keys")
	}
	params, err := NewParameters(ParametersLiteral{LogN: 9, LogSlots: 8, LogQ: []int{50, 36}, LogP: []int{50}, LogScale: 36, Alpha: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	kg := NewKeyGenerator(params)
	sk := kg.GenSecretKey()
	hybridOnly, err := kg.GenEvaluationKeySet(sk, []KeySwitchMethod{Hybrid}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	hybridOnly.DeriveKLSS(params, sk, nil)
	if hybridOnly.klss != nil {
		t.Fatal("DeriveKLSS attached a derivation on a parameter set without a KLSS chain")
	}
}
