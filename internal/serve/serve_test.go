package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fastfhe/fast/internal/ckks"
	"github.com/fastfhe/fast/internal/obs"
)

// block returns a task body that blocks until release is closed.
func block(release <-chan struct{}) func(context.Context) error {
	return func(ctx context.Context) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

func TestDoRunsTasks(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 4})
	defer s.Drain(context.Background())
	var ran atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// 8 concurrent submitters can legitimately outrun 2 workers + 4
			// queue slots on a small box; queue-full pushback asks the client
			// to retry, so retry — the invariant under test is that every
			// task eventually executes exactly once.
			for {
				err := s.Do(context.Background(), Op{Name: "t", Units: 10}, func(context.Context) error {
					ran.Add(1)
					return nil
				})
				if errors.Is(err, ErrQueueFull) {
					time.Sleep(100 * time.Microsecond)
					continue
				}
				if err != nil {
					t.Errorf("Do: %v", err)
				}
				return
			}
		}()
	}
	wg.Wait()
	if got := ran.Load(); got != 8 {
		t.Fatalf("ran %d of 8 tasks", got)
	}
}

func TestQueueFullRejectsImmediately(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Drain(context.Background())

	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{})
	go s.Do(context.Background(), Op{Name: "hog"}, func(ctx context.Context) error {
		close(started)
		return block(release)(ctx)
	})
	<-started
	// Fill the queue slot.
	go s.Do(context.Background(), Op{Name: "queued"}, block(release))
	deadline := time.Now().Add(time.Second)
	for s.QueueLen() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("queued task never enqueued")
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	err := s.Do(context.Background(), Op{Name: "overflow"}, func(context.Context) error { return nil })
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Fatalf("queue-full rejection took %v, want <10ms", d)
	}
}

func TestDeadlineShedding(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8, NsPerUnit: 1e6}) // 1ms per unit
	defer s.Drain(context.Background())

	// 100 units * 1ms = 100ms estimated service; a 5ms deadline is hopeless.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.Do(ctx, Op{Name: "doomed", Units: 100}, func(context.Context) error {
		t.Error("shed task must not run")
		return nil
	})
	if !errors.Is(err, ErrShed) {
		t.Fatalf("want ErrShed, got %v", err)
	}
	if !errors.Is(err, ckks.ErrDeadline) {
		t.Fatalf("shed error must match ckks.ErrDeadline, got %v", err)
	}
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Fatalf("shed took %v, want <10ms", d)
	}

	// A comfortable deadline is admitted.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Minute)
	defer cancel2()
	if err := s.Do(ctx2, Op{Name: "fine", Units: 1}, func(context.Context) error { return nil }); err != nil {
		t.Fatalf("admissible request rejected: %v", err)
	}
}

func TestCanceledWhileQueued(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	defer s.Drain(context.Background())

	release := make(chan struct{})
	started := make(chan struct{})
	go s.Do(context.Background(), Op{Name: "hog"}, func(ctx context.Context) error {
		close(started)
		return block(release)(ctx)
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- s.Do(ctx, Op{Name: "waiter"}, func(context.Context) error {
			t.Error("abandoned task must not run")
			return nil
		})
	}()
	deadline := time.Now().Add(time.Second)
	for s.QueueLen() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never enqueued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, ckks.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("want ErrCanceled/context.Canceled, got %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("canceled Do did not return promptly")
	}
	close(release)
}

func TestPanicIsolation(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Workers: 1, QueueDepth: 2, Reg: reg})
	defer s.Drain(context.Background())

	err := s.Do(context.Background(), Op{Name: "bomb"}, func(context.Context) error {
		panic("boom")
	})
	if !errors.Is(err, ErrPanicked) {
		t.Fatalf("want ErrPanicked, got %v", err)
	}
	// The worker must survive: the next task runs on the same single worker.
	if err := s.Do(context.Background(), Op{Name: "after"}, func(context.Context) error { return nil }); err != nil {
		t.Fatalf("worker died after panic: %v", err)
	}
	if got := reg.Counter("serve.panics").Value(); got != 1 {
		t.Fatalf("panic counter = %d, want 1", got)
	}
}

func TestDrainRejectsNewFinishesQueued(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})

	release := make(chan struct{})
	started := make(chan struct{})
	var finished atomic.Int32
	go s.Do(context.Background(), Op{Name: "hog"}, func(ctx context.Context) error {
		close(started)
		<-release
		finished.Add(1)
		return nil
	})
	<-started
	// Queue one more; it must complete during drain.
	queuedErr := make(chan error, 1)
	go func() {
		queuedErr <- s.Do(context.Background(), Op{Name: "queued"}, func(context.Context) error {
			finished.Add(1)
			return nil
		})
	}()
	deadline := time.Now().Add(time.Second)
	for s.QueueLen() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("queued task never enqueued")
		}
		time.Sleep(time.Millisecond)
	}

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	deadline = time.Now().Add(time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("drain never started")
		}
		time.Sleep(time.Millisecond)
	}

	// New arrivals are rejected while draining.
	if err := s.Do(context.Background(), Op{Name: "late"}, func(context.Context) error { return nil }); !errors.Is(err, ErrDraining) {
		t.Fatalf("want ErrDraining, got %v", err)
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-queuedErr; err != nil {
		t.Fatalf("queued task failed during drain: %v", err)
	}
	if got := finished.Load(); got != 2 {
		t.Fatalf("finished %d tasks, want 2 (hog + queued)", got)
	}
}

func TestDrainTimeout(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	started := make(chan struct{})
	go s.Do(context.Background(), Op{Name: "stuck"}, func(ctx context.Context) error {
		close(started)
		<-release // ignores ctx: a worst-case handler
		return nil
	})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, ckks.ErrDeadline) {
		t.Fatalf("want ErrDeadline from bounded drain, got %v", err)
	}
	close(release)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestCancellationCountedNotFailed: a task whose caller gives up mid-flight
// returns a cancellation-class error and lands in serve.canceled — the
// caller's fault, not the handler's, so serve.failed stays untouched.
func TestCancellationCountedNotFailed(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Workers: 1, QueueDepth: 2, Reg: reg})
	defer s.Drain(context.Background())

	ctx, cancel := context.WithCancel(context.Background())
	err := s.Do(ctx, Op{Name: "c"}, func(ctx context.Context) error {
		cancel()
		<-ctx.Done()
		return fmt.Errorf("op: %w: %w", ckks.ErrCanceled, ctx.Err())
	})
	if !errors.Is(err, ckks.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if c, f := reg.Counter("serve.canceled").Value(), reg.Counter("serve.failed").Value(); c != 1 || f != 0 {
		t.Fatalf("serve.canceled = %d, serve.failed = %d, want 1 and 0", c, f)
	}
}

func TestEstimatorCalibration(t *testing.T) {
	e := NewEstimator(1)
	for i := 0; i < 20; i++ {
		e.Observe(1000, time.Millisecond) // 1000 ns/unit
	}
	got := e.NsPerUnit()
	if got < 900 || got > 1100 {
		t.Fatalf("ns/unit = %v, want ~1000", got)
	}
	if w := e.WaitNS(4000, 2); w < 1.8e6 || w > 2.2e6 {
		t.Fatalf("WaitNS(4000 units, 2 workers) = %v, want ~2e6", w)
	}
	if s := e.ServiceNS(500); s < 4.5e5 || s > 5.5e5 {
		t.Fatalf("ServiceNS(500) = %v, want ~5e5", s)
	}
}

func TestDoMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Workers: 1, QueueDepth: 1, Reg: reg})
	defer s.Drain(context.Background())
	if err := s.Do(context.Background(), Op{Name: "ok", Units: 5}, func(context.Context) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("serve.admitted").Value(); got != 1 {
		t.Fatalf("admitted = %d, want 1", got)
	}
	if got := reg.Counter("serve.completed").Value(); got != 1 {
		t.Fatalf("completed = %d, want 1", got)
	}
	if got := reg.Histogram("serve.admission_wait_ns").Count(); got != 1 {
		t.Fatalf("wait histogram count = %d, want 1", got)
	}
}

// TestQueuedUnitsNeverNegative: units are accounted before the channel send,
// so a worker popping the task can never drive the counter below zero —
// which WaitNS would clamp to 0, transiently telling concurrent arrivals the
// queue is empty and over-admitting past their deadlines.
func TestQueuedUnitsNeverNegative(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 64})
	defer s.Drain(context.Background())

	stop := make(chan struct{})
	var sawNegative atomic.Bool
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if s.queuedUnits.Load() < 0 {
				sawNegative.Store(true)
				return
			}
			runtime.Gosched()
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				_ = s.Do(context.Background(), Op{Name: "w", Units: 7}, func(context.Context) error { return nil })
			}
		}()
	}
	wg.Wait()
	close(stop)
	sampler.Wait()
	if sawNegative.Load() {
		t.Fatal("queuedUnits went negative: units accounted after the channel send")
	}
	if got := s.queuedUnits.Load(); got != 0 {
		t.Fatalf("queuedUnits after quiescence = %d, want 0", got)
	}
}
