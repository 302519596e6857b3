package ckks

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/fastfhe/fast/internal/obs"
)

// countdownCtx reports context.Canceled from its n-th Err poll on: a
// cancellation that lands at a chosen checkpoint of a serial pipeline,
// deterministically, where a timer lands wherever the scheduler puts it.
type countdownCtx struct {
	context.Context
	left atomic.Int64
	done chan struct{}
}

func countdown(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background(), done: make(chan struct{})}
	c.left.Store(n)
	return c
}

func (c *countdownCtx) Done() <-chan struct{} { return c.done }

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// pooledBalance is gets - puts over every ring pool of the observed
// evaluator (ring.pool.evaluator.* and the switchers' ring.pool.keyswitch.*):
// the buffers currently checked out.
func pooledBalance(tc *testContext) int64 {
	var bal int64
	for name, v := range tc.ob.Snapshot().Counters {
		switch {
		case !strings.HasPrefix(name, "ring.pool."):
		case strings.HasSuffix(name, ".gets"):
			bal += int64(v)
		case strings.HasSuffix(name, ".puts"):
			bal -= int64(v)
		}
	}
	return bal
}

// TestCancellationInsideEachStageReturnsScratch extends the cancellation
// suite's leak oracle (gets == puts) to the pipelines that recycle their
// intermediates: a bootstrap and each of its stages, and a linear transform,
// canceled at checkpoints spread through the stage — inside hoisted
// rotations, buckets, giant steps, polynomial evaluation and squarings. Every
// run must return the typed cancellation and leave the pools balanced, so
// every pooled intermediate goes back on the error paths too.
func TestCancellationInsideEachStageReturnsScratch(t *testing.T) {
	params, err := NewParameters(bootstrapLiteral(10, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	tc, bt := newBootstrapContext(t, params)
	ev := tc.eval
	ct := exhausted(t, tc, randomValues(params.Slots(), 81))

	// Each stage's input, as the pipeline before it makes it.
	raised, err := bt.modRaise(ct)
	if err != nil {
		t.Fatal(err)
	}
	folded, err := bt.subSum(nil, raised)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := bt.coeffToSlot(nil, folded)
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := bt.evalMod(nil, packed[0], ct.Scale)
	if err != nil {
		t.Fatal(err)
	}
	defer ev.recycle(append([]*Ciphertext{raised, folded, reduced}, packed...)...)

	stages := []struct {
		name string
		run  func(cc *cancelCheck) error
	}{
		{"Bootstrap", func(cc *cancelCheck) error { _, err := bt.bootstrap(cc, ct); return err }},
		{"SubSum", func(cc *cancelCheck) error {
			out, err := bt.subSum(cc, raised)
			ev.recycle(out)
			return err
		}},
		{"CoeffToSlot", func(cc *cancelCheck) error {
			parts, err := bt.coeffToSlot(cc, folded)
			ev.recycle(parts...)
			return err
		}},
		{"EvalMod", func(cc *cancelCheck) error {
			out, err := bt.evalMod(cc, packed[0], ct.Scale)
			ev.recycle(out)
			return err
		}},
		{"SlotToCoeff", func(cc *cancelCheck) error { _, err := bt.slotToCoeff(cc, []*Ciphertext{reduced}); return err }},
		{"LinearTransform", func(cc *cancelCheck) error {
			out, err := ev.linearTransform(cc, folded, bt.ctsLT, poolResult)
			ev.recycle(out)
			return err
		}},
	}
	for _, st := range stages {
		t.Run(st.name, func(t *testing.T) {
			uncanceled := countdown(math.MaxInt64)
			if err := st.run(newCancelCheck(uncanceled)); err != nil {
				t.Fatal(err)
			}
			polls := math.MaxInt64 - uncanceled.left.Load()
			for _, k := range []int64{0, polls / 5, 2 * polls / 5, 3 * polls / 5, 4 * polls / 5, polls - 1} {
				before := pooledBalance(tc)
				if err := st.run(newCancelCheck(countdown(k))); !errors.Is(err, ErrCanceled) {
					t.Fatalf("canceled at poll %d of %d: err = %v, want ErrCanceled", k, polls, err)
				}
				if after := pooledBalance(tc); after != before {
					t.Fatalf("canceled at poll %d of %d: %d pooled buffers not returned", k, polls, after-before)
				}
			}
		})
	}
}

// TestCancellationInsideParallelTasks holds the fan-out paths of a two-worker
// evaluator to the same oracle: a Mul (tensor, ModUp digits, KeyMult rows,
// the ModDown and Rescale components), a rotation and a hoisted group with a
// rotate-and-sum, each canceled at every one of its polls. Whichever worker's
// poll sees the cancellation, the op must return the typed error and hand
// back every buffer it took, the group buffers taken before the fork
// included.
func TestCancellationInsideParallelTasks(t *testing.T) {
	base := newTestContext(t)
	tc := *base
	tc.ob = obs.New()
	var err error
	if tc.eval, err = NewEvaluatorOptions(tc.params, tc.keys, EvaluatorOptions{Parallelism: 2, Observer: tc.ob}); err != nil {
		t.Fatal(err)
	}
	ev := tc.eval
	pt, err := tc.enc.Encode(randomValues(tc.params.Slots(), 82))
	if err != nil {
		t.Fatal(err)
	}
	ct, err := tc.encr.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	ops := []struct {
		name string
		run  func(ctx context.Context) error
	}{
		{"Mul", func(ctx context.Context) error { _, err := ev.MulRelinRescaleCtx(ctx, ct, ct, Hybrid); return err }},
		{"Mul/KLSS", func(ctx context.Context) error { _, err := ev.MulRelinRescaleCtx(ctx, ct, ct, KLSS); return err }},
		{"Rotate", func(ctx context.Context) error { _, err := ev.RotateCtx(ctx, ct, 1, Hybrid); return err }},
		{"Hoisted", func(ctx context.Context) error {
			_, _, err := ev.RotateHoistedSumsCtx(ctx, ct, []int{-1, 2}, [][]int{{1, 4, 8}}, Hybrid)
			return err
		}},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			uncanceled := countdown(math.MaxInt64)
			if err := op.run(uncanceled); err != nil {
				t.Fatal(err)
			}
			polls := math.MaxInt64 - uncanceled.left.Load()
			for k := range polls {
				before := pooledBalance(&tc)
				if err := op.run(countdown(k)); !errors.Is(err, ErrCanceled) {
					t.Fatalf("canceled at poll %d of %d: err = %v, want ErrCanceled", k, polls, err)
				}
				if after := pooledBalance(&tc); after != before {
					t.Fatalf("canceled at poll %d of %d: %d pooled buffers not returned", k, polls, after-before)
				}
			}
		})
	}
}
