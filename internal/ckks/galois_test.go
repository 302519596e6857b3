package ckks

import (
	"sync"
	"testing"

	"github.com/fastfhe/fast/internal/ring"
)

// TestGaloisIndexCacheZeroRecompute pins the memoization contract: the
// automorphism index table for a Galois element is computed at most once per
// parameter shape, no matter how many rotations (direct or hoisted) or key
// generations touch it afterwards. The cache belongs to the shape, which
// every parameter set of the same literal shares, so the test counts
// computes from where it finds the cache rather than from zero.
func TestGaloisIndexCacheZeroRecompute(t *testing.T) {
	params, err := TestParameters()
	if err != nil {
		t.Fatalf("TestParameters: %v", err)
	}
	before := params.GaloisIndexComputes()
	kgen := NewKeyGenerator(params)
	sk := kgen.GenSecretKey()
	keys, err := kgen.GenEvaluationKeySet(sk, []KeySwitchMethod{Hybrid}, []int{1, 2}, false)
	if err != nil {
		t.Fatalf("GenEvaluationKeySet: %v", err)
	}
	// Key generation for rotations {1, 2} computes at most those two tables
	// (none if an earlier user of the shape already did).
	afterKeygen := params.GaloisIndexComputes()
	if d := afterKeygen - before; d < 0 || d > 2 {
		t.Fatalf("keygen computed %d tables, want at most 2", d)
	}
	// A second key generation over the same shape, with another seed,
	// computes nothing.
	other := *params
	other.seed++
	if _, err := NewKeyGenerator(&other).GenEvaluationKeySet(sk, []KeySwitchMethod{Hybrid}, []int{1, 2}, false); err != nil {
		t.Fatalf("GenEvaluationKeySet: %v", err)
	}
	if got := params.GaloisIndexComputes(); got != afterKeygen {
		t.Fatalf("second keygen computed %d tables, want 0", got-afterKeygen)
	}

	eval, err := NewEvaluatorOptions(params, keys, EvaluatorOptions{})
	if err != nil {
		t.Fatalf("NewEvaluatorOptions: %v", err)
	}
	enc := NewEncoder(params)
	encr := NewEncryptor(params, kgen.GenPublicKey(sk))
	values := randomValues(params.Slots(), 42)
	pt, _ := enc.Encode(values)
	ct, err := encr.Encrypt(pt)
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}

	// Repeated rotations by the same amounts must not recompute anything:
	// the keygen pass already warmed the shared cache.
	for i := 0; i < 5; i++ {
		if _, err := eval.RotateWith(ct, 1, Hybrid); err != nil {
			t.Fatalf("RotateWith: %v", err)
		}
		if _, err := eval.RotateHoistedWith(ct, []int{1, 2}, Hybrid); err != nil {
			t.Fatalf("RotateHoistedWith: %v", err)
		}
	}
	if got := params.GaloisIndexComputes(); got != afterKeygen {
		t.Fatalf("5x rotations computed %d tables, want 0 (zero recomputation)", got-afterKeygen)
	}

	// The evaluator and keygen observe the very same table object.
	galEl := ring.GaloisElementForRotation(params.LogN(), 1)
	idx1 := params.GaloisIndex(galEl)
	idx2 := params.GaloisIndex(galEl)
	if &idx1[0] != &idx2[0] {
		t.Fatal("GaloisIndex returned distinct tables for the same element")
	}
	if len(idx1) != params.N() {
		t.Fatalf("index table length %d, want N=%d", len(idx1), params.N())
	}
}

// TestGaloisIndexCacheConcurrent checks the cache under concurrent first
// access: many goroutines racing on a cold element must converge on a single
// stored table, and lookups must stay safe alongside insertions.
func TestGaloisIndexCacheConcurrent(t *testing.T) {
	params, err := TestParameters()
	if err != nil {
		t.Fatalf("TestParameters: %v", err)
	}
	galEl := ring.GaloisElementForRotation(params.LogN(), 7)
	const workers = 8
	tables := make([][]int, workers)
	var wg sync.WaitGroup
	var start sync.WaitGroup
	start.Add(1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			start.Wait()
			tables[w] = params.GaloisIndex(galEl)
		}(w)
	}
	start.Done()
	wg.Wait()
	for w := 1; w < workers; w++ {
		if &tables[w][0] != &tables[0][0] {
			t.Fatal("concurrent first access yielded distinct tables")
		}
	}
	// The reference computation matches the cached table.
	want := ring.AutomorphismNTTIndex(params.N(), params.LogN(), galEl)
	for i := range want {
		if tables[0][i] != want[i] {
			t.Fatalf("cached table diverges from reference at %d", i)
		}
	}
}
