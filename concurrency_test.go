package fast

import (
	"context"
	"fmt"
	"math/cmplx"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/fastfhe/fast/internal/ckks"
	"github.com/fastfhe/fast/internal/ring"
	"github.com/fastfhe/fast/internal/ring/kerneltest"
)

// sharedCtx builds one Context reused by the concurrency tests (context
// construction generates all keys, the expensive part).
var (
	sharedOnce sync.Once
	sharedC    *Context
	sharedErr  error
)

func sharedConcCtx(t *testing.T) *Context {
	t.Helper()
	sharedOnce.Do(func() {
		sharedC, sharedErr = NewContext(DefaultConfig())
	})
	if sharedErr != nil {
		t.Fatalf("NewContext: %v", sharedErr)
	}
	return sharedC
}

// TestConcurrentEvaluation runs mixed Mul/Rotate/Rescale/Conjugate traffic
// from many goroutines against a single Context and verifies every decrypted
// result. Run with -race to check the synchronisation claims of the
// concurrency model (README "Concurrency model").
func TestConcurrentEvaluation(t *testing.T) {
	ctx := sharedConcCtx(t)
	n := ctx.Slots()

	const goroutines = 8
	const iters = 3

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Per-goroutine method: half the workers drive the hybrid
			// backend, half KLSS — through the same evaluator.
			method := Hybrid
			if g%2 == 1 {
				method = KLSS
			}
			a := make([]complex128, n)
			b := make([]complex128, n)
			for i := range a {
				a[i] = complex(float64((i+g)%9)/20, float64(g%3)/10)
				b[i] = complex(0.3, -float64((i+2*g)%5)/25)
			}
			ca, err := ctx.Encrypt(a)
			if err != nil {
				errs <- fmt.Errorf("g%d: encrypt a: %v", g, err)
				return
			}
			cb, err := ctx.Encrypt(b)
			if err != nil {
				errs <- fmt.Errorf("g%d: encrypt b: %v", g, err)
				return
			}
			for it := 0; it < iters; it++ {
				// conj(rot((a+b)*a, 1)) with a deferred rescale in the
				// middle, exercising Add, Mul(NoRescale), Rescale, Rotate
				// and Conjugate concurrently.
				sum, err := ctx.Add(ca, cb)
				if err != nil {
					errs <- fmt.Errorf("g%d: add: %v", g, err)
					return
				}
				prod, err := ctx.Mul(sum, ca, WithMethod(method), NoRescale())
				if err != nil {
					errs <- fmt.Errorf("g%d: mul: %v", g, err)
					return
				}
				if prod, err = ctx.Rescale(prod); err != nil {
					errs <- fmt.Errorf("g%d: rescale: %v", g, err)
					return
				}
				rot, err := ctx.Rotate(prod, 1, WithMethod(method))
				if err != nil {
					errs <- fmt.Errorf("g%d: rotate: %v", g, err)
					return
				}
				conj, err := ctx.Conjugate(rot, WithMethod(method))
				if err != nil {
					errs <- fmt.Errorf("g%d: conjugate: %v", g, err)
					return
				}
				got := ctx.Decrypt(conj)
				for i := 0; i < n; i++ {
					j := (i + 1) % n
					want := cmplx.Conj((a[j] + b[j]) * a[j])
					if e := cmplx.Abs(got[i] - want); e > 1e-4 {
						errs <- fmt.Errorf("g%d it%d: slot %d: |err|=%.3e (got %v want %v)",
							g, it, i, e, got[i], want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestNoRescaleSemantics checks that NoRescale defers exactly the rescale:
// level and product scale are kept, and a later Context.Rescale yields the
// same ciphertext the eager path produces.
func TestNoRescaleSemantics(t *testing.T) {
	ctx := testCtx(t)
	n := ctx.Slots()
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(0.4, float64(i%4)/16)
	}
	ct, err := ctx.Encrypt(v)
	if err != nil {
		t.Fatal(err)
	}

	eager, err := ctx.Mul(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	deferred, err := ctx.Mul(ct, ct, NoRescale())
	if err != nil {
		t.Fatal(err)
	}
	if deferred.Level() != ct.Level() {
		t.Fatalf("NoRescale dropped a level: %d -> %d", ct.Level(), deferred.Level())
	}
	if deferred.Scale() <= eager.Scale() {
		t.Fatalf("NoRescale result should carry the product scale: %g <= %g",
			deferred.Scale(), eager.Scale())
	}
	late, err := ctx.Rescale(deferred)
	if err != nil {
		t.Fatal(err)
	}
	if late.Level() != eager.Level() || late.Scale() != eager.Scale() {
		t.Fatalf("deferred rescale landed at level %d scale %g, eager at %d/%g",
			late.Level(), late.Scale(), eager.Level(), eager.Scale())
	}
	if !late.ct.C0.Equal(eager.ct.C0) || !late.ct.C1.Equal(eager.ct.C1) {
		t.Fatal("Mul(NoRescale)+Rescale differs from eager Mul")
	}
}

// TestNewContextOptions covers the construction-time options surface: a zero
// cfg is DefaultConfig with the options applied on top, Config reports
// WithParallelism's n as given (0, the default, and 1 run serially; n >= 2
// up to n workers; negative GOMAXPROCS), and the option changes how an op
// runs, never what it computes: on every kernel path, at DefaultConfig and at
// lib_deep's shape (its toy size, and log_n 13 with 11 levels, skipped under
// -short), every output of parallelismOutputs has the serial context's bytes
// at every n.
func TestNewContextOptions(t *testing.T) {
	kerneltest.EachPath(t, func(t *testing.T) {
		for _, shape := range []struct {
			name string
			cfg  ContextConfig
		}{{"DefaultConfig", ContextConfig{}}, {"lib_deep/toy", deepConfig(9, 5)}, {"lib_deep", deepConfig(13, 11)}} {
			t.Run(shape.name, func(t *testing.T) {
				if shape.name == "lib_deep" && testing.Short() {
					t.Skip("log_n 13 contexts: skipped under -short")
				}
				serial, err := NewContext(shape.cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := parallelismOutputs(t, serial)
				for _, n := range []int{0, 1, 2, 3, -1} {
					ctx, err := NewContext(shape.cfg, WithParallelism(n))
					if err != nil {
						t.Fatal(err)
					}
					wantCfg := serial.Config()
					if shape.name == "DefaultConfig" {
						wantCfg = DefaultConfig()
						wantCfg.LogSlots = wantCfg.LogN - 1
					}
					wantCfg.Parallelism = n
					if got := ctx.Config(); !reflect.DeepEqual(got, wantCfg) {
						t.Fatalf("WithParallelism(%d): Config() = %+v, want %+v", n, got, wantCfg)
					}
					for op, got := range parallelismOutputs(t, ctx) {
						if !got.C0.Equal(want[op].C0) || !got.C1.Equal(want[op].C1) {
							t.Fatalf("WithParallelism(%d) changed %s's bytes vs serial evaluation", n, op)
						}
					}
				}
			})
		}
	})
}

// parallelismOutputs encrypts one vector on a fresh ctx and returns its Mul
// (hybrid and KLSS), its Rotate by 1, its fused hybrid sum of rotations by
// 1, 2 and 4, its Mul and Rotate at level 1 (one digit: β = 1 at α = 2) and,
// on a context with lib_deep's rotations, the Execute of deepProgram's plan.
func parallelismOutputs(t *testing.T, ctx *Context) map[string]*ckks.Ciphertext {
	t.Helper()
	v := make([]complex128, ctx.Slots())
	v[3] = 0.75
	ct, err := ctx.Encrypt(v)
	if err != nil {
		t.Fatal(err)
	}
	low := &Ciphertext{ctx.eval.DropLevel(ct.ct, ct.Level()-1)}
	outs := map[string]*ckks.Ciphertext{}
	for name, op := range map[string]func() (*Ciphertext, error){
		"Mul":          func() (*Ciphertext, error) { return ctx.Mul(ct, ct) },
		"Mul/KLSS":     func() (*Ciphertext, error) { return ctx.Mul(ct, ct, WithMethod(KLSS)) },
		"Rotate":       func() (*Ciphertext, error) { return ctx.Rotate(ct, 1) },
		"Mul/beta1":    func() (*Ciphertext, error) { return ctx.Mul(low, low) },
		"Rotate/beta1": func() (*Ciphertext, error) { return ctx.Rotate(low, 1) },
		"RotateSum": func() (*Ciphertext, error) {
			return wrap(ctx.eval.RotateSumWith(ct.ct, []int{1, 2, 4}, ckks.Hybrid))
		},
	} {
		out, err := op()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		outs[name] = out.ct
	}
	if slices.Contains(ctx.Config().Rotations, 32) {
		plan, err := ctx.Plan(deepProgram(), nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := ctx.Execute(context.Background(), plan, map[string]*Ciphertext{"x": ct})
		if err != nil {
			t.Fatal(err)
		}
		outs["deepProgram"] = out.ct
	}
	return outs
}

// TestForkJoinsPerExecute pins how many fork-joins (ring.ForEachLimbRange
// calls that start goroutines) one Execute of deepProgram runs at lib_deep's
// shape: none at WithParallelism(1), and at WithParallelism(2) one per stage
// — per Mul the tensor, ModUp, KeyMult, ModDown, the final adds and the
// Rescale (6), per rotation or rotate-and-sum ModUp, KeyMult, ModDown and
// the c0 adds (4): 3·6 + 3·4 = 30. It was 106 when every kernel forked on its
// own.
func TestForkJoinsPerExecute(t *testing.T) {
	for n, want := range map[int]uint64{1: 0, 2: 30} {
		ctx, err := NewContext(deepConfig(13, 11), WithParallelism(n))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := ctx.Plan(deepProgram(), nil)
		if err != nil {
			t.Fatal(err)
		}
		x, err := ctx.Encrypt([]complex128{0.5})
		if err != nil {
			t.Fatal(err)
		}
		before := ring.ForkJoins()
		if _, err := ctx.Execute(context.Background(), plan, map[string]*Ciphertext{"x": x}); err != nil {
			t.Fatal(err)
		}
		if got := ring.ForkJoins() - before; got != want {
			t.Errorf("WithParallelism(%d): one Execute ran %d fork-joins, want %d", n, got, want)
		}
	}
}

// TestSeedDeterminism verifies that two contexts with the same seed produce
// bit-identical ciphertexts — i.e. the sampler serialisation added for
// concurrency kept the deterministic stream order.
func TestSeedDeterminism(t *testing.T) {
	build := func() (*Context, *Ciphertext) {
		cfg := DefaultConfig()
		cfg.Seed = 99
		ctx, err := NewContext(cfg)
		if err != nil {
			t.Fatal(err)
		}
		v := make([]complex128, ctx.Slots())
		for i := range v {
			v[i] = complex(float64(i%13)/26, 0)
		}
		ct, err := ctx.Encrypt(v)
		if err != nil {
			t.Fatal(err)
		}
		return ctx, ct
	}
	_, ct1 := build()
	_, ct2 := build()
	if !ct1.ct.C0.Equal(ct2.ct.C0) || !ct1.ct.C1.Equal(ct2.ct.C1) {
		t.Fatal("same seed produced different ciphertexts: sampler stream order changed")
	}
}
