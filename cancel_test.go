package fast_test

// Cancellation contract tests. The promises under test:
//
//   - a canceled context makes key-switch-bearing ops (Mul, Rotate,
//     Conjugate, hoisted rotations, Bootstrap) return promptly with an error
//     matching BOTH fast.ErrCanceled and context.Canceled (resp.
//     fast.ErrDeadline / context.DeadlineExceeded),
//   - "promptly" means: an op whose context is already done runs none of
//     its key-switch stages, and one canceled mid-flight returns within about
//     one uncancelled Mul — the checkpoints sit at limb-chunk granularity
//     inside the kernels, not just at op entry,
//   - cancellation never leaks pooled scratch: the pool instrumentation's
//     gets == puts balance is unchanged by a canceled-only phase. (The
//     pipelines that recycle intermediates — bootstrap stages, linear
//     transforms — are canceled at every stage by
//     internal/ckks.TestCancellationInsideEachStageReturnsScratch.)

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	fast "github.com/fastfhe/fast"
)

func cancelTestContext(t *testing.T, opts ...fast.Option) *fast.Context {
	t.Helper()
	ctx, err := fast.NewContext(fast.ContextConfig{
		LogN:        9,
		Levels:      3,
		LogScale:    36,
		Rotations:   []int{1, -1, 4},
		Conjugation: true,
		EnableKLSS:  true,
		Seed:        7,
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func encryptPair(t *testing.T, ctx *fast.Context) (*fast.Ciphertext, *fast.Ciphertext) {
	t.Helper()
	vals := make([]complex128, ctx.Slots())
	for i := range vals {
		vals[i] = complex(0.5, -0.25)
	}
	a, err := ctx.Encrypt(vals)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctx.Encrypt(vals)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// medianMul measures the median latency of n uncancelled max-level Muls.
func medianMul(t *testing.T, ctx *fast.Context, a, b *fast.Ciphertext, n int) time.Duration {
	t.Helper()
	times := make([]time.Duration, n)
	for i := range times {
		start := time.Now()
		if _, err := ctx.Mul(a, b); err != nil {
			t.Fatalf("uncancelled Mul: %v", err)
		}
		times[i] = time.Since(start)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[n/2]
}

// keySwitchStages sums the sample counts of every key-switch stage histogram
// (ckks.keyswitch.<method>.{modup,keymult,moddown}_ns): how many ModUp,
// KeyMult and ModDown stages have run on the observed context.
func keySwitchStages(m *fast.MetricsSnapshot) uint64 {
	var n uint64
	for name, h := range m.Histograms {
		if strings.HasPrefix(name, "ckks.keyswitch.") {
			for _, stage := range []string{".modup_ns", ".keymult_ns", ".moddown_ns"} {
				if strings.HasSuffix(name, stage) {
					n += h.Count
				}
			}
		}
	}
	return n
}

// TestCancellationPreCanceled: every key-switch-bearing op refuses a
// pre-canceled or expired context up front, with both error taxonomies
// matched and not one key-switch stage run — a count, so the gate holds on a
// loaded machine where a wall-clock bound does not.
func TestCancellationPreCanceled(t *testing.T) {
	ob := fast.NewObserver()
	ctx := cancelTestContext(t, fast.WithObserver(ob))
	a, b := encryptPair(t, ctx)
	if _, err := ctx.Mul(a, b); err != nil {
		t.Fatal(err)
	}
	if keySwitchStages(ob.Metrics()) == 0 {
		t.Fatal("an uncancelled Mul moved no key-switch stage histogram: the oracle is blind")
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()

	ops := []struct {
		name     string
		call     func() error
		sentinel error
		ctxErr   error
	}{
		{"Mul", func() error { _, err := ctx.Mul(a, b, fast.WithContext(canceled)); return err }, fast.ErrCanceled, context.Canceled},
		{"Rotate", func() error { _, err := ctx.Rotate(a, 1, fast.WithContext(canceled)); return err }, fast.ErrCanceled, context.Canceled},
		{"Conjugate", func() error { _, err := ctx.Conjugate(a, fast.WithContext(canceled)); return err }, fast.ErrCanceled, context.Canceled},
		{"RotateHoisted", func() error {
			_, err := ctx.RotateHoisted(a, []int{1, -1, 4}, fast.WithContext(canceled))
			return err
		}, fast.ErrCanceled, context.Canceled},
		{"Mul/KLSS", func() error {
			_, err := ctx.Mul(a, b, fast.WithMethod(fast.KLSS), fast.WithContext(canceled))
			return err
		}, fast.ErrCanceled, context.Canceled},
		{"Mul/expired", func() error { _, err := ctx.Mul(a, b, fast.WithContext(expired)); return err }, fast.ErrDeadline, context.DeadlineExceeded},
		{"RotateHoisted/expired", func() error {
			_, err := ctx.RotateHoisted(a, []int{1, -1, 4}, fast.WithContext(expired))
			return err
		}, fast.ErrDeadline, context.DeadlineExceeded},
	}
	for _, op := range ops {
		before := keySwitchStages(ob.Metrics())
		err := op.call()
		if !errors.Is(err, op.sentinel) || !errors.Is(err, op.ctxErr) {
			t.Errorf("%s: err = %v, want %v and %v", op.name, err, op.sentinel, op.ctxErr)
		}
		if ran := keySwitchStages(ob.Metrics()) - before; ran != 0 {
			t.Errorf("%s: a done context still ran %d key-switch stages", op.name, ran)
		}
	}
}

// TestCancellationMidFlight cancels an in-progress evaluation from another
// goroutine and requires a prompt typed abort. The victim is a long chain of
// key-switching rotations under one context, so the cancellation is
// guaranteed to land while a kernel is running (or about to run); the
// promptness bound — measured from the instant cancel fires, not from chain
// start — proves the in-kernel checkpoints observe it instead of letting the
// chain run to completion. It runs serially and on two workers, where the
// checkpoints sit in the ModUp digit and ModDown component tasks.
func TestCancellationMidFlight(t *testing.T) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("parallelism=%d", n), func(t *testing.T) {
			cancelMidFlight(t, cancelTestContext(t, fast.WithParallelism(n)))
		})
	}
}

func cancelMidFlight(t *testing.T, ctx *fast.Context) {
	a, b := encryptPair(t, ctx)
	median := medianMul(t, ctx, a, b, 5)

	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var canceledAt time.Time
	timer := time.AfterFunc(2*time.Millisecond, func() {
		canceledAt = time.Now()
		cancel()
	})
	defer timer.Stop()

	var err error
	out := a
	start := time.Now()
	for time.Since(start) < 10*time.Second {
		out, err = ctx.Rotate(out, 1, fast.WithContext(cctx))
		if err != nil {
			break
		}
	}
	returnedAt := time.Now()
	if err == nil {
		t.Fatal("rotation chain was never canceled")
	}
	if !errors.Is(err, fast.ErrCanceled) {
		t.Fatalf("mid-flight cancel: err = %v, want fast.ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-flight cancel: err = %v does not match context.Canceled", err)
	}
	// Prompt abort: from cancel firing to the error surfacing must cost at
	// most about one operation (the checkpoint granularity), with scheduling
	// slack. A failure here would mean the kernels only check at entry.
	latency := returnedAt.Sub(canceledAt)
	if bound := 2*median + 20*time.Millisecond; latency > bound {
		t.Errorf("cancellation latency %v exceeds %v (median op %v)", latency, bound, median)
	}
}

// poolBalance sums gets - puts over every ring-pool instrument in the
// snapshot — the number of pooled buffers currently checked out.
func poolBalance(m *fast.MetricsSnapshot) int64 {
	var bal int64
	for name, v := range m.Counters {
		if !strings.HasPrefix(name, "ring.pool.") {
			continue
		}
		switch {
		case strings.HasSuffix(name, ".gets"):
			bal += int64(v)
		case strings.HasSuffix(name, ".puts"):
			bal -= int64(v)
		}
	}
	return bal
}

// TestCancellationPoolLeakGuard: a canceled-only phase must not change the
// pools' gets/puts balance — every abort path returns its scratch, on the
// serial path and on the two-worker one, where a mid-flight cancel lands in a
// ModUp digit task or a ModDown or Rescale component task.
func TestCancellationPoolLeakGuard(t *testing.T) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("parallelism=%d", n), func(t *testing.T) {
			ob := fast.NewObserver()
			cancelPoolLeakGuard(t, ob, cancelTestContext(t, fast.WithObserver(ob), fast.WithParallelism(n)))
		})
	}
}

func cancelPoolLeakGuard(t *testing.T, ob *fast.Observer, ctx *fast.Context) {
	a, b := encryptPair(t, ctx)

	// Warm the pools with successful traffic on both backends first so the
	// canceled phase reuses pooled buffers instead of allocating.
	for i := 0; i < 3; i++ {
		if _, err := ctx.Mul(a, b); err != nil {
			t.Fatal(err)
		}
		if _, err := ctx.Rotate(a, 1, fast.WithMethod(fast.KLSS)); err != nil {
			t.Fatal(err)
		}
		if _, err := ctx.RotateHoisted(a, []int{1, -1, 4}); err != nil {
			t.Fatal(err)
		}
	}
	before := poolBalance(ob.Metrics())

	// Canceled-only phase: pre-canceled and mid-flight, across ops/backends.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 10; i++ {
		if _, err := ctx.Mul(a, b, fast.WithContext(canceled)); !errors.Is(err, fast.ErrCanceled) {
			t.Fatalf("pre-canceled Mul: %v", err)
		}
		if _, err := ctx.Rotate(a, -1, fast.WithMethod(fast.KLSS), fast.WithContext(canceled)); !errors.Is(err, fast.ErrCanceled) {
			t.Fatalf("pre-canceled Rotate: %v", err)
		}
		mctx, mcancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(50*time.Microsecond, mcancel)
		_, err := ctx.RotateHoisted(a, []int{1, -1, 4}, fast.WithContext(mctx))
		timer.Stop()
		mcancel()
		if err != nil && !errors.Is(err, fast.ErrCanceled) {
			t.Fatalf("mid-flight hoisted rotate: %v", err)
		}
		mctx, mcancel = context.WithCancel(context.Background())
		timer = time.AfterFunc(time.Duration(10*(i+1))*time.Microsecond, mcancel)
		_, err = ctx.Mul(a, b, fast.WithContext(mctx))
		timer.Stop()
		mcancel()
		if err != nil && !errors.Is(err, fast.ErrCanceled) {
			t.Fatalf("mid-flight Mul: %v", err)
		}
	}
	after := poolBalance(ob.Metrics())
	if before != after {
		t.Fatalf("pool leak: checked-out balance changed %d -> %d during canceled-only phase", before, after)
	}
}

// TestCancellationBootstrap: the deep pipeline honors cancellation too, both
// pre-canceled and mid-flight (the per-level / per-iteration checkpoints).
func TestCancellationBootstrap(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrapping is slow")
	}
	bctx, err := fast.NewBootstrapContext(fast.BootstrapContextConfig{})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]complex128, bctx.Slots())
	for i := range vals {
		vals[i] = complex(0.3, 0.1)
	}
	ct, err := bctx.Encrypt(vals)
	if err != nil {
		t.Fatal(err)
	}
	low := bctx.ExhaustLevels(ct)

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := bctx.BootstrapCtx(canceled, low); !errors.Is(err, fast.ErrCanceled) {
		t.Fatalf("pre-canceled Bootstrap: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("pre-canceled Bootstrap took %v, want immediate", elapsed)
	}

	mctx, mcancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(10*time.Millisecond, mcancel)
	defer timer.Stop()
	start = time.Now()
	_, err = bctx.BootstrapCtx(mctx, low)
	elapsed := time.Since(start)
	mcancel()
	if !errors.Is(err, fast.ErrCanceled) {
		t.Fatalf("mid-flight Bootstrap cancel: err = %v, want fast.ErrCanceled", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("mid-flight canceled Bootstrap took %v, want prompt abort", elapsed)
	}
}
