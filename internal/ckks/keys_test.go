package ckks

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"github.com/fastfhe/fast/internal/obs"
	"github.com/fastfhe/fast/internal/ring"
)

// TestLazyKeysMatchEager: a set derives each key on its first lookup, from
// the key's own stream, so whatever order the keys are first read in — and
// whatever order the methods were named in — every key is byte for byte the
// one GenEvaluationKeySet derives eagerly. Nothing is drawn before a lookup,
// a key is drawn once (2 polynomials per gadget group), a rotation listed
// twice names one key, and a rotation the set does not name is missing.
func TestLazyKeysMatchEager(t *testing.T) {
	params, err := TestParameters()
	if err != nil {
		t.Fatal(err)
	}
	sk := NewKeyGenerator(params).GenSecretKey()
	rotations := []int{4, 1, -1, 1} // out of order, one repeated
	eager, err := NewKeyGenerator(params).GenEvaluationKeySet(sk, []KeySwitchMethod{Hybrid, KLSS}, rotations, true)
	if err != nil {
		t.Fatal(err)
	}
	klssFirst, err := NewKeyGenerator(params).GenEvaluationKeySet(sk, []KeySwitchMethod{KLSS, Hybrid}, rotations, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(setBytes(t, eager), setBytes(t, klssFirst)) {
		t.Fatal("eager key sets differ with the order their methods were asked in")
	}

	ob := obs.New()
	draws := ob.Reg().Counter("ckks.sampler.draws")
	lazy := NewEvaluationKeySet(params, sk, []KeySwitchMethod{Hybrid, KLSS}, rotations, true, ob)
	ids := lazy.ids()
	if len(ids) != 2*5 { // per method: relin, 3 distinct rotations, conjugation
		t.Fatalf("the set names %d keys, want 10", len(ids))
	}
	if draws.Value() != 0 {
		t.Fatalf("building the set drew %d polynomials", draws.Value())
	}
	slices.Reverse(ids)
	var want uint64
	for _, id := range ids {
		if !lazy.Pending(id) {
			t.Fatalf("%+v is not pending before its first lookup", id)
		}
		got, err := lazy.key(id)
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := eager.key(id)
		if !bytes.Equal(swkBytes(got), swkBytes(ref)) {
			t.Fatalf("%+v derived on first use differs from the eager key", id)
		}
		if want += uint64(2 * len(got.B)); draws.Value() != want {
			t.Fatalf("after %+v: %d polynomials drawn, want %d", id, draws.Value(), want)
		}
		if again, _ := lazy.key(id); again != got || lazy.Pending(id) || draws.Value() != want {
			t.Fatalf("a second lookup of %+v derived it again", id)
		}
	}
	if _, err := lazy.GaloisKey(Hybrid, params.GaloisElement(2)); !errors.Is(err, ErrKeyMissing) {
		t.Fatalf("key for an unnamed rotation: %v, want ErrKeyMissing", err)
	}
	if lazy.Pending(KeyID{Hybrid, params.GaloisElement(2)}) {
		t.Fatal("a key the set does not name is pending")
	}
}

// TestKeyStreamsTakeTheWholeSeed: keys are drawn under every bit of the
// parameter seed — two seeds equal modulo 2^31−1, which the main stream
// cannot tell apart, derive different keys — and each key from a stream of
// its own, so no two keys of one set share bytes.
func TestKeyStreamsTakeTheWholeSeed(t *testing.T) {
	key := func(seed int64, id KeyID) []byte {
		lit := ParametersLiteral{LogN: 9, LogSlots: 8, LogQ: []int{50, 36}, LogP: []int{50}, LogScale: 36, Alpha: 2, Seed: seed}
		params, err := NewParameters(lit)
		if err != nil {
			t.Fatal(err)
		}
		set := NewEvaluationKeySet(params, NewKeyGenerator(params).GenSecretKey(), []KeySwitchMethod{Hybrid}, []int{1}, false, nil)
		k, err := set.key(id)
		if err != nil {
			t.Fatal(err)
		}
		return swkBytes(k)
	}
	relin, rot := KeyID{Method: Hybrid}, KeyID{Hybrid, ring.GaloisGen} // rotation 1
	if bytes.Equal(key(1, relin), key(1+(1<<31-1), relin)) {
		t.Fatal("seeds 1 and 2^31 derive the same relinearization key")
	}
	if bytes.Equal(key(1, relin)[1:], key(1, rot)[1:]) {
		t.Fatal("two keys of one set share their bytes")
	}
}

// TestKLSSKeysNeedKLSSChain: a parameter set without a KLSS chain cannot
// derive KLSS keys, eagerly or on a lookup.
func TestKLSSKeysNeedKLSSChain(t *testing.T) {
	params, err := NewParameters(ParametersLiteral{LogN: 9, LogSlots: 8, LogQ: []int{50, 36}, LogP: []int{50}, LogScale: 36, Alpha: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	kg := NewKeyGenerator(params)
	sk := kg.GenSecretKey()
	if _, err := kg.GenEvaluationKeySet(sk, []KeySwitchMethod{Hybrid, KLSS}, nil, false); !errors.Is(err, ErrMethodUnavailable) {
		t.Fatalf("eager KLSS keys without a KLSS chain: %v, want ErrMethodUnavailable", err)
	}
	hybridOnly := NewEvaluationKeySet(params, sk, []KeySwitchMethod{Hybrid}, nil, false, nil)
	if _, err := hybridOnly.RelinKey(KLSS); !errors.Is(err, ErrKeyMissing) {
		t.Fatalf("KLSS relinearization key of a hybrid-only set: %v, want ErrKeyMissing", err)
	}
}

// ids returns the keys the set names, by method, then element.
func (s *EvaluationKeySet) ids() []KeyID {
	ids := make([]KeyID, 0, len(s.keys))
	for id := range s.keys {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(a, b KeyID) int {
		return cmp.Or(cmp.Compare(a.Method, b.Method), cmp.Compare(a.GalEl, b.GalEl))
	})
	return ids
}

// setBytes is every key s names, derived, in ids order, each behind its
// method and element. Keys have no wire form; this is what two sets are
// compared by.
func setBytes(t *testing.T, s *EvaluationKeySet) []byte {
	var b []byte
	for _, id := range s.ids() {
		k, err := s.key(id)
		if err != nil {
			t.Fatal(err)
		}
		b = binary.LittleEndian.AppendUint64(append(b, byte(id.Method)), id.GalEl)
		b = append(b, swkBytes(k)...)
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

// BenchmarkDeriveKey times the derivation of one hybrid Galois key (the
// rotation-by-1 key, on one goroutine) at the parameter points of the
// benchmark's workloads: serve (fastd's default session), lib_deep and
// lib_bootstrap. The ms/key column is what a cold op pays per key it reads.
func BenchmarkDeriveKey(b *testing.B) {
	point := func(logN, levels, logScale int) ParametersLiteral {
		return ParametersLiteral{
			LogN: logN, LogSlots: logN - 1, LogQ: append([]int{logScale + 14}, repeat(logScale, levels)...),
			LogP: []int{logScale + 14, logScale + 14}, LogScale: logScale, Alpha: 2, Seed: 1,
		}
	}
	for _, pt := range []struct {
		name string
		lit  ParametersLiteral
	}{
		{"serve", point(11, 5, 36)},
		{"lib_deep", point(13, 11, 36)},
		{"bootstrap", bootstrapLiteral(12, 4, 3)},
	} {
		b.Run(pt.name, func(b *testing.B) {
			params, err := NewParameters(pt.lit)
			if err != nil {
				b.Fatal(err)
			}
			sk := NewKeyGenerator(params).GenSecretKey()
			id := KeyID{Hybrid, params.GaloisElement(1)}
			b.ResetTimer()
			for range b.N {
				if _, err := deriveKey(params, sk, id, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed())/1e6/float64(b.N), "ms/key")
		})
	}
}
