package serve_test

// TestServeOverload is the acceptance exercise for the admission layer: a
// real evaluator behind a tiny worker pool, hit by 4x its admission capacity
// concurrently, with panicking tasks and unmeetable deadlines mixed in.
// Invariants:
//
//   - zero panics escape the pool (panicking tasks return ErrPanicked, the
//     workers keep serving),
//   - shed requests are rejected with typed errors in under 10ms,
//   - every accepted request computes a result bit-identical to the direct
//     (unserved) evaluator — degradation may drop work, never corrupt it,
//   - drain completes cleanly and the worker goroutines exit (goroutine
//     count returns to the pre-server baseline).
//
// It lives in package serve_test so it can drive the real public evaluator;
// the admission layer itself never imports it (no cycle).

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	fast "github.com/fastfhe/fast"
	"github.com/fastfhe/fast/internal/obs"
	"github.com/fastfhe/fast/internal/serve"
)

func TestServeOverload(t *testing.T) {
	// Real evaluator and reference result, built before the goroutine
	// baseline is taken so any goroutines the evaluator owns are excluded
	// from the drain delta.
	fctx, err := fast.NewContext(fast.ContextConfig{
		LogN:      9,
		Levels:    3,
		LogScale:  36,
		Rotations: []int{1},
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	slots := fctx.Slots()
	av := make([]complex128, slots)
	bv := make([]complex128, slots)
	for i := range av {
		av[i] = complex(0.5, 0.1)
		bv[i] = complex(0.25, -0.05)
	}
	ca, err := fctx.Encrypt(av)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := fctx.Encrypt(bv)
	if err != nil {
		t.Fatal(err)
	}
	evalOnce := func(ctx context.Context) (*fast.Ciphertext, error) {
		rot, err := fctx.Rotate(ca, 1, fast.WithContext(ctx))
		if err != nil {
			return nil, err
		}
		return fctx.Mul(rot, cb, fast.WithContext(ctx))
	}
	direct, err := evalOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var refBuf bytes.Buffer
	if err := direct.Serialize(&refBuf); err != nil {
		t.Fatal(err)
	}
	refBytes := refBuf.Bytes()

	baseline := runtime.NumGoroutine()

	reg := obs.New().Reg()
	srv := serve.New(serve.Config{
		Workers:    2,
		QueueDepth: 2, // admission capacity = 4 (2 running + 2 queued)
		NsPerUnit:  100,
		Reg:        reg,
	})
	const capacity = 4
	const clients = 4 * capacity // the contracted 4x overload

	type outcome struct {
		kind    string // "eval", "panic", "shed"
		err     error
		elapsed time.Duration
		bits    []byte
		retries int
	}
	outcomes := make([]outcome, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := &outcomes[i]
			switch {
			case i%8 == 7: // panicking task: must be isolated, typed
				o.kind = "panic"
				for {
					o.err = srv.Do(context.Background(), serve.Op{Name: "boom", Units: 1},
						func(context.Context) error { panic("kernel bug") })
					if errors.Is(o.err, serve.ErrQueueFull) && o.retries < 200 {
						o.retries++
						time.Sleep(2 * time.Millisecond)
						continue
					}
					return
				}
			case i%4 == 3: // unmeetable deadline: must shed on arrival, fast
				o.kind = "shed"
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				defer cancel()
				start := time.Now()
				// 1e9 units at >=100ns/unit is ~100s of estimated service
				// against a 50ms deadline: provably unmeetable.
				o.err = srv.Do(ctx, serve.Op{Name: "doomed", Units: 1e9},
					func(context.Context) error { return nil })
				o.elapsed = time.Since(start)
			default: // real work: retry queue-full like a backoff client
				o.kind = "eval"
				for {
					var out *fast.Ciphertext
					o.err = srv.Do(context.Background(), serve.Op{Name: "eval", Units: 1},
						func(ctx context.Context) error {
							var err error
							out, err = evalOnce(ctx)
							return err
						})
					if errors.Is(o.err, serve.ErrQueueFull) && o.retries < 200 {
						o.retries++
						time.Sleep(2 * time.Millisecond)
						continue
					}
					if o.err == nil {
						var buf bytes.Buffer
						if err := out.Serialize(&buf); err != nil {
							o.err = err
						} else {
							o.bits = buf.Bytes()
						}
					}
					return
				}
			}
		}(i)
	}
	wg.Wait()

	var evals, sheds, panics int
	for i, o := range outcomes {
		switch o.kind {
		case "eval":
			evals++
			if o.err != nil {
				t.Errorf("client %d: eval failed: %v (after %d retries)", i, o.err, o.retries)
				continue
			}
			if !bytes.Equal(o.bits, refBytes) {
				t.Errorf("client %d: accepted result is not bit-identical to the direct evaluator", i)
			}
		case "shed":
			sheds++
			if !errors.Is(o.err, serve.ErrShed) {
				t.Errorf("client %d: shed error = %v, want ErrShed", i, o.err)
			}
			if !errors.Is(o.err, fast.ErrDeadline) {
				t.Errorf("client %d: shed error %v does not match fast.ErrDeadline", i, o.err)
			}
			if o.elapsed > 10*time.Millisecond {
				t.Errorf("client %d: shed took %v, want < 10ms", i, o.elapsed)
			}
		case "panic":
			panics++
			if !errors.Is(o.err, serve.ErrPanicked) {
				t.Errorf("client %d: panic task error = %v, want ErrPanicked", i, o.err)
			}
		}
	}
	if evals == 0 || sheds == 0 || panics == 0 {
		t.Fatalf("mix degenerated: evals=%d sheds=%d panics=%d", evals, sheds, panics)
	}

	// The pool must still be fully alive after the panics.
	if err := srv.Do(context.Background(), serve.Op{Name: "post", Units: 1},
		func(context.Context) error { return nil }); err != nil {
		t.Fatalf("pool dead after panics: %v", err)
	}

	// Panic accounting reached the registry.
	snap := reg.Snapshot()
	if got := snap.Counters["serve.panics"]; got != uint64(panics) {
		t.Errorf("serve.panics = %d, want %d", got, panics)
	}
	if snap.Counters["serve.shed.deadline"] < uint64(sheds) {
		t.Errorf("serve.shed.deadline = %d, want >= %d", snap.Counters["serve.shed.deadline"], sheds)
	}

	// Clean drain: bounded, no stragglers, new work typed-refused.
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := srv.Do(context.Background(), serve.Op{Name: "late", Units: 1},
		func(context.Context) error { return nil }); !errors.Is(err, serve.ErrDraining) {
		t.Fatalf("post-drain Do error = %v, want ErrDraining", err)
	}

	// Worker goroutines must be gone: poll until the count returns to the
	// pre-server baseline (small slack for runtime/test housekeeping).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after drain: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}
