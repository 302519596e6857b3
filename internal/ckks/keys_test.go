package ckks

import (
	"bytes"
	"encoding/binary"
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
	if !bytes.Equal(setBytes(derived), section(eager, Hybrid)) {
		t.Fatal("the hybrid keys moved when KLSS keys were generated with them")
	}
	if !bytes.Equal(setBytes(eager), setBytes(klssFirst)) {
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
	if !bytes.Equal(swkBytes(got), swkBytes(want)) {
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
		if !bytes.Equal(swkBytes(got), swkBytes(want)) {
			t.Fatalf("derived KLSS Galois key %d differs from the eager one", el)
		}
	}
	if _, err := derived.GaloisKey(KLSS, ring.GaloisElementForRotation(params.LogN(), 2)); !errors.Is(err, ErrKeyMissing) {
		t.Fatalf("KLSS key for an ungenerated rotation: %v, want ErrKeyMissing", err)
	}
	if !bytes.Equal(setBytes(derived), section(eager, Hybrid)) {
		t.Fatal("the derived KLSS section reached the set's own maps")
	}
	if want := uint64(2 * 5 * len(want.B)); draws.Value() != want { // relin + 4 Galois keys, 2 draws per group
		t.Fatalf("the derivation drew %d polynomials, want %d", draws.Value(), want)
	}
}

// section is setBytes of a set holding only method m's keys of s.
func section(s *EvaluationKeySet, m KeySwitchMethod) []byte {
	one := NewEvaluationKeySet()
	one.Relin[m] = s.Relin[m]
	one.Galois[m] = s.Galois[m]
	return setBytes(one)
}

// setBytes is the keys s's maps hold, in a canonical order: methods
// ascending, each its relinearization key, then its Galois keys by element.
// Keys have no wire form; this is what two sets are compared by.
func setBytes(s *EvaluationKeySet) []byte {
	var b []byte
	for _, m := range []KeySwitchMethod{Hybrid, KLSS} {
		if s.Relin[m] == nil {
			continue
		}
		b = append(b, swkBytes(s.Relin[m])...)
		for _, el := range s.galoisElements(m) {
			b = append(binary.LittleEndian.AppendUint64(b, el), swkBytes(s.Galois[m][el])...)
		}
	}
	return b
}

// swkBytes is a switching key's method and every gadget pair's coefficients.
func swkBytes(k *SwitchingKey) []byte {
	b := []byte{byte(k.Method)}
	for j := range k.B {
		b = appendPoly(appendPoly(b, k.B[j]), k.A[j])
	}
	return b
}

// TestDeriveKLSSNeedsKLSSChain: DeriveKLSS attaches nothing when the
// parameter set has no KLSS chain, so a KLSS lookup misses.
func TestDeriveKLSSNeedsKLSSChain(t *testing.T) {
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
	if _, err := hybridOnly.RelinKey(KLSS); !errors.Is(err, ErrKeyMissing) {
		t.Fatalf("KLSS relinearization key without a KLSS chain: %v, want ErrKeyMissing", err)
	}
}
