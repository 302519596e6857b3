package fast

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/fastfhe/fast/internal/ring/kerneltest"
)

// TestGoldenBytesEveryKernelPath reruns the golden-bytes tests of this
// package under each kernel path (go, avx2, avx512ifma) the host offers: the
// 52-bit datapath must produce, byte for byte, what the 64-bit kernels and the
// Go reference loops produce, so the expected values in those tests are the
// same ones on every path.
func TestGoldenBytesEveryKernelPath(t *testing.T) {
	kerneltest.EachPath(t, func(t *testing.T) {
		t.Run("TestBootstrapGoldenBytes", TestBootstrapGoldenBytes)
		t.Run("TestPlanGoldenBenchmarkPrograms", TestPlanGoldenBenchmarkPrograms)
	})
}

// TestRotationBytesIndependentOfSchedule: a rotation's bytes do not depend on
// how it was scheduled. Rotate, RotateHoisted with the one amount, a
// one-rotation group in Execute and the same plan under ExecuteSequential all
// run one path — a ModUp of the unpermuted c1, the key product permuted into
// the accumulator, one ModDown pair — so they agree byte for byte under
// either method, on every kernel path; so do Conjugate and a conjugate op
// under both executors. Two goroutines share the context and must agree with
// each other too (make race runs this under the race detector).
func TestRotationBytesIndependentOfSchedule(t *testing.T) {
	kerneltest.EachPath(t, func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.LogN, cfg.Levels, cfg.Seed = 10, 3, 19
		ctx, err := NewContext(cfg)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]complex128, ctx.Slots())
		for i := range vals {
			vals[i] = complex(float64(i%9)/8-0.5, float64(i%4)/8)
		}
		ct, err := ctx.Encrypt(vals)
		if err != nil {
			t.Fatal(err)
		}
		inputs := map[string]*Ciphertext{"x": ct}

		// forms returns, per schedule, the serialized output of one rotation
		// (conj: the conjugation) of ct under method m.
		forms := func(r int, conj bool, m Method) (map[string][]byte, error) {
			prog := NewProgram().In("x")
			scheduled := map[string]func() (*Ciphertext, error){}
			if conj {
				prog.Conjugate("y", "x", WithMethod(m))
				scheduled["Conjugate"] = func() (*Ciphertext, error) { return ctx.Conjugate(ct, WithMethod(m)) }
			} else {
				prog.Rotate("y", "x", r, WithMethod(m))
				scheduled["Rotate"] = func() (*Ciphertext, error) { return ctx.Rotate(ct, r, WithMethod(m)) }
				scheduled["RotateHoisted"] = func() (*Ciphertext, error) {
					outs, err := ctx.RotateHoisted(ct, []int{r}, WithMethod(m))
					return outs[r], err
				}
			}
			plan, err := ctx.Plan(prog.Return("y"), nil)
			if err != nil {
				return nil, err
			}
			scheduled["Execute"] = func() (*Ciphertext, error) { return ctx.Execute(context.Background(), plan, inputs) }
			scheduled["ExecuteSequential"] = func() (*Ciphertext, error) {
				return ctx.ExecuteSequential(context.Background(), plan, inputs)
			}
			out := map[string][]byte{}
			for name, run := range scheduled {
				res, err := run()
				if err != nil {
					return nil, fmt.Errorf("%s: %w", name, err)
				}
				var buf bytes.Buffer
				if err := res.Serialize(&buf); err != nil {
					return nil, err
				}
				out[name] = buf.Bytes()
			}
			return out, nil
		}
		type site struct {
			r    int
			conj bool
			m    Method
		}
		var sites []site
		for _, m := range []Method{Hybrid, KLSS} {
			for _, r := range []int{1, -1, 8} {
				sites = append(sites, site{r: r, m: m})
			}
			sites = append(sites, site{conj: true, m: m})
		}

		const workers = 2
		got := make([][]map[string][]byte, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, s := range sites {
					f, err := forms(s.r, s.conj, s.m)
					if err != nil {
						errs[w] = err
						return
					}
					got[w] = append(got[w], f)
				}
			}()
		}
		wg.Wait()
		for w, err := range errs {
			if err != nil {
				t.Fatalf("goroutine %d: %v", w, err)
			}
		}
		for i, s := range sites {
			ref := got[0][i]["Execute"]
			for w := range workers {
				for name, b := range got[w][i] {
					if !bytes.Equal(b, ref) {
						t.Errorf("%+v: goroutine %d's %s differs from goroutine 0's Execute", s, w, name)
					}
				}
			}
		}
	})
}
