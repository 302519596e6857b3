package ckks

import (
	"runtime"
	"testing"

	"github.com/fastfhe/fast/internal/ring"
)

// TestKeySwitchAllocs pins the steady-state allocation count of the hot
// key-switch path (MulRelin = tensor + relinearisation key-switch). All
// scratch comes from the evaluator's and switcher's polynomial pools, so
// the only allocations left are the polynomials that escape into the result
// ciphertext and a handful of fixed-size headers. A large jump here means a
// pooling regression: some scratch buffer went back to make/NewPoly.
func TestKeySwitchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime instruments sync.Pool and inflates AllocsPerRun")
	}
	tc := newTestContext(t)
	values := randomValues(tc.params.Slots(), 77)
	pt, _ := tc.enc.Encode(values)
	ct, err := tc.encr.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}

	for _, method := range []KeySwitchMethod{Hybrid, KLSS} {
		// Warm the pools: the first calls populate the sync.Pools.
		for i := 0; i < 3; i++ {
			if _, err := tc.eval.MulRelinWith(ct, ct, method); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := tc.eval.MulRelinWith(ct, ct, method); err != nil {
				t.Fatal(err)
			}
		})
		// The escaping result accounts for ~2 polynomials (row slices +
		// contiguous backings) plus headers; steady state measures 26, so 35
		// leaves headroom for pool misses under GC pressure while failing
		// loudly if scratch stops being pooled (which shows up as hundreds of
		// per-limb allocations) or a limb buffer loses its arena.
		const maxAllocs = 35
		t.Logf("MulRelin %v: %.0f allocs/op", method, allocs)
		if allocs > maxAllocs {
			t.Errorf("MulRelin %v allocates %.0f times per op, want <= %d (pooling regression?)",
				method, allocs, maxAllocs)
		}
	}

	// The widest group the planner fuses: lib_deep's hoist group is a
	// four-rotation sum at level 9 with digits of two, β = 5. keyProduct's
	// per-row tables hold the β digit rows and one key's rows on the stack,
	// and every term's product passes through one pooled scratch row pair per
	// row chunk. Tables on the heap would cost +3 per chunk.
	params, err := NewParameters(ParametersLiteral{
		LogN: 10, LogSlots: 9, LogQ: append([]int{50}, repeat(36, 9)...), LogP: []int{50, 50},
		LogScale: 36, Alpha: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	kgen := NewKeyGenerator(params)
	sk := kgen.GenSecretKey()
	ks, err := NewKeySwitcherWorkers(params, Hybrid, 1)
	if err != nil {
		t.Fatal(err)
	}
	level := params.MaxLevel()
	c := ring.NewPoly(params.N(), level+1)
	dec, err := ks.Decompose(c, level)
	if err != nil {
		t.Fatal(err)
	}
	terms := make([]ksTerm, 4)
	for i := range terms {
		galEl := params.GaloisElement(1 << i)
		key, err := kgen.GenGaloisKey(sk, galEl, Hybrid)
		if err != nil {
			t.Fatal(err)
		}
		terms[i] = ksTerm{key: key, idx: params.GaloisIndex(galEl)}
	}
	if h, beta := len(terms), ks.beta(level); h*beta != 20 {
		t.Fatalf("h·β = %d·%d, want the 20 terms of lib_deep's group", h, beta)
	}
	d0, d1 := ring.NewPoly(params.N(), level+1), ring.NewPoly(params.N(), level+1)
	fused := func() {
		if err := ks.keyMult(nil, dec, terms, level, d0, d1); err != nil {
			t.Fatal(err)
		}
	}
	fused()
	allocs := testing.AllocsPerRun(10, fused)
	const maxAllocs = 10 // steady state measures 9
	t.Logf("keyMult h4 β5: %.0f allocs/op", allocs)
	if allocs > maxAllocs {
		t.Errorf("keyMult over four rotations at β = 5 allocates %.0f times per op, want <= %d (tables on the heap?)",
			allocs, maxAllocs)
	}
}

// TestRotateAllocs pins the steady-state allocation count of the rotation
// path (automorphism + key-switch). On top of the pooled scratch this also
// guards the memoized Galois index tables: before the cache, every Rotate
// re-allocated an N-entry permutation table, which would blow well past the
// budget here.
func TestRotateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime instruments sync.Pool and inflates AllocsPerRun")
	}
	tc := newTestContext(t)
	values := randomValues(tc.params.Slots(), 78)
	pt, _ := tc.enc.Encode(values)
	ct, err := tc.encr.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}

	for _, method := range []KeySwitchMethod{Hybrid, KLSS} {
		for i := 0; i < 3; i++ {
			if _, err := tc.eval.RotateWith(ct, 1, method); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := tc.eval.RotateWith(ct, 1, method); err != nil {
				t.Fatal(err)
			}
		})
		const maxAllocs = 35 // steady state measures 28
		t.Logf("Rotate %v: %.0f allocs/op", method, allocs)
		if allocs > maxAllocs {
			t.Errorf("Rotate %v allocates %.0f times per op, want <= %d (pooling or galois-cache regression?)",
				method, allocs, maxAllocs)
		}
	}
}

// TestRotateHoistedAllocs pins the allocation count of a hoisted rotation
// batch: one shared decomposition plus per-rotation key-mults. The budget is
// per batch of three rotations (three escaping ciphertexts and the result
// map), so it sits above the single-rotation budget but still fails loudly if
// the decomposition scratch or the index tables stop being pooled/cached.
func TestRotateHoistedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime instruments sync.Pool and inflates AllocsPerRun")
	}
	tc := newTestContext(t)
	values := randomValues(tc.params.Slots(), 79)
	pt, _ := tc.enc.Encode(values)
	ct, err := tc.encr.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}

	rots := []int{1, 2, 4}
	for _, method := range []KeySwitchMethod{Hybrid, KLSS} {
		for i := 0; i < 3; i++ {
			if _, err := tc.eval.RotateHoistedWith(ct, rots, method); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := tc.eval.RotateHoistedWith(ct, rots, method); err != nil {
				t.Fatal(err)
			}
		})
		const maxAllocs = 96 // steady state measures 65
		t.Logf("RotateHoisted %v (%d rots): %.0f allocs/op", method, len(rots), allocs)
		if allocs > maxAllocs {
			t.Errorf("RotateHoisted %v allocates %.0f times per op, want <= %d (pooling or galois-cache regression?)",
				method, allocs, maxAllocs)
		}
	}
}

// TestBootstrapAllocBytes pins the bytes one steady-state Bootstrap allocates
// at the bootstrap test point (log_n 12, 16 slots, 24 levels). Every
// intermediate of the pipeline is drawn from the evaluator's pool and handed
// back, so what is left is the exact-size result, the small per-op headers
// and the scratch pools' occasional refills; the budget is the measured
// figure with about 25 % headroom. A pipeline stage that goes back to fresh
// polynomials costs up to 0.8 MB per ciphertext, so a few of them blow it.
func TestBootstrapAllocBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap test is slow")
	}
	if raceEnabled {
		t.Skip("race runtime instruments sync.Pool and inflates allocation")
	}
	tc, bt := bootstrapTestContext(t)
	ct := exhausted(t, tc, randomValues(tc.params.Slots(), 80))
	for i := 0; i < 2; i++ { // warm the pools
		if _, err := bt.Bootstrap(ct); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := bt.Bootstrap(ct); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / runs
	// Measured 1.2–2.7 MB per op (log_n 12, avx512ifma; the spread is the
	// scratch pools refilling after a collection).
	const maxBytes = 3_500_000
	t.Logf("Bootstrap: %.2f MB allocated per op", float64(perOp)/1e6)
	if perOp > maxBytes {
		t.Errorf("Bootstrap allocates %d bytes per op, want <= %d (an intermediate left the pool?)", perOp, maxBytes)
	}
}
