package ckks

import (
	"runtime"
	"testing"
	"time"

	"github.com/fastfhe/fast/internal/obs"
)

// shapeTestLiteral is a literal no other test in the package compiles, so the
// tests below see its cache entry come and go on their own.
func shapeTestLiteral(seed int64) ParametersLiteral {
	return ParametersLiteral{
		LogN:     9,
		LogSlots: 8,
		LogQ:     []int{45, 31, 31},
		LogP:     []int{45, 45},
		LogT:     []int{60, 60},
		LogScale: 31,
		Alpha:    2,
		Seed:     seed,
	}
}

// TestParametersShareShapeAcrossSeeds: parameter sets whose literals differ
// only in Seed share one compiled shape (the same rings, tables and caches)
// and still generate different keys; any other difference compiles its own.
func TestParametersShareShapeAcrossSeeds(t *testing.T) {
	a, err := NewParameters(shapeTestLiteral(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewParameters(shapeTestLiteral(2))
	if err != nil {
		t.Fatal(err)
	}
	if a.shape != b.shape || a.RingQ() != b.RingQ() || a.ringQP != b.ringQP || a.galois != b.galois {
		t.Fatal("parameter sets of one literal but for Seed compiled separate shapes")
	}
	if a.Seed() == b.Seed() {
		t.Fatal("seeds merged with the shape")
	}
	skA, skB := NewKeyGenerator(a).GenSecretKey(), NewKeyGenerator(b).GenSecretKey()
	if skA.QP.Equal(skB.QP) {
		t.Fatal("different seeds generated the same secret key")
	}
	// Two of one seed are separate handles on the shape, with equal keys.
	a2, err := NewParameters(shapeTestLiteral(1))
	if err != nil {
		t.Fatal(err)
	}
	if a2 == a || a2.shape != a.shape || !NewKeyGenerator(a2).GenSecretKey().QP.Equal(skA.QP) {
		t.Fatal("a second parameter set of one literal is not the same shape and keys")
	}

	other := shapeTestLiteral(1)
	other.Sigma = 3.3
	c, err := NewParameters(other)
	if err != nil {
		t.Fatal(err)
	}
	if c.shape == a.shape {
		t.Fatal("literals differing in Sigma share a shape")
	}
	// Defaults are applied before the lookup: Sigma 0 means 3.2.
	explicit := shapeTestLiteral(3)
	explicit.Sigma, explicit.AlphaT = 3.2, 2
	d, err := NewParameters(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if d.shape != a.shape {
		t.Fatal("a literal spelling out the defaults compiled a second shape")
	}
}

// TestShapeCacheForgetsUnreferencedShapes: the cache holds its shapes weakly.
// Once nothing references a shape — no parameter set, key generator,
// evaluator or pool buffer of any context built on it — a collection frees it
// and its cache entry goes; the next request compiles it again.
func TestShapeCacheForgetsUnreferencedShapes(t *testing.T) {
	lit := shapeTestLiteral(5)
	lit.LogScale = 30              // its own entry, apart from the test above
	lit.Sigma, lit.AlphaT = 3.2, 2 // defaults spelled out: lit is its own key
	key := shapeKey(lit)
	useContext := func() {
		params, err := NewParameters(lit)
		if err != nil {
			t.Fatal(err)
		}
		kgen := NewKeyGenerator(params)
		sk := kgen.GenSecretKey()
		keys, err := kgen.GenEvaluationKeySet(sk, []KeySwitchMethod{Hybrid, KLSS}, []int{1}, true)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := NewEvaluatorOptions(params, keys, EvaluatorOptions{Observer: obs.New()})
		if err != nil {
			t.Fatal(err)
		}
		pt, err := NewEncoder(params).Encode(randomValues(params.Slots(), 1))
		if err != nil {
			t.Fatal(err)
		}
		ct, err := NewEncryptor(params, kgen.GenPublicKey(sk)).Encrypt(pt)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []KeySwitchMethod{Hybrid, KLSS} {
			if _, err := ev.MulRelinWith(ct, ct, m); err != nil {
				t.Fatal(err)
			}
			if _, err := ev.RotateHoistedWith(ct, []int{1}, m); err != nil {
				t.Fatal(err)
			}
		}
		if !cached(key) {
			t.Fatal("a live shape is missing from the cache")
		}
	}
	useContext()
	if !waitShapeGone(key) {
		t.Fatal("the cache still holds a shape no context references")
	}
	before := ShapeCompiles()
	useContext()
	if got := ShapeCompiles() - before; got != 1 {
		t.Fatalf("a request after eviction compiled %d shapes, want 1", got)
	}
}

// cached reports whether the cache holds an entry for key.
func cached(key string) bool {
	shapeCache.Lock()
	defer shapeCache.Unlock()
	_, ok := shapeCache.m[key]
	return ok
}

// waitShapeGone collects until key's entry leaves the cache (cleanups run on
// their own goroutine after a collection), for up to five seconds.
func waitShapeGone(key string) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		runtime.GC()
		if !cached(key) {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}
