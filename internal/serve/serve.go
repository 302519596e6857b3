// Package serve is the admission-control layer of the serving stack: a
// bounded queue in front of a fixed worker pool, deadline-aware load
// shedding, per-worker panic isolation and graceful drain. It is deliberately
// generic — tasks are closures — so the same machinery fronts the fastd HTTP
// daemon and the in-process chaos tests.
//
// The degradation ladder, outermost first:
//
//	draining   → ErrDraining   (server is shutting down; nothing new enters)
//	shed       → ErrShed       (deadline provably unmeetable; reject now,
//	                            in microseconds, instead of timing out after
//	                            burning a worker for the full service time)
//	queue full → ErrQueueFull  (burst exceeded QueueDepth; push back)
//	canceled   → ErrCanceled/ErrDeadline (caller gave up while queued or
//	                            mid-kernel; pooled scratch is released)
//	panic      → ErrPanicked   (handler bug; the worker survives, the one
//	                            request fails)
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fastfhe/fast/internal/ckks"
	"github.com/fastfhe/fast/internal/obs"
)

// Typed admission errors. ErrShed additionally matches ckks.ErrDeadline (and
// therefore fast.ErrDeadline) under errors.Is — a shed request and a request
// that ran out of deadline mid-kernel are the same failure class to a client,
// they differ only in how cheaply the server found out.
var (
	// ErrQueueFull reports an arrival that found the bounded admission queue
	// at capacity. The request was not executed.
	ErrQueueFull = errors.New("serve: admission queue full")

	// ErrShed reports an arrival rejected because its deadline could not be
	// met given the estimated queue wait plus service time.
	ErrShed = errors.New("serve: request shed")

	// ErrDraining reports an arrival during graceful shutdown.
	ErrDraining = errors.New("serve: server draining")

	// ErrPanicked reports a task whose handler panicked. The panic was
	// recovered inside the worker: the worker survives and the panic value is
	// attached to the returned error.
	ErrPanicked = errors.New("serve: handler panicked")
)

// Op describes one unit of admitted work for cost estimation. Units is an
// abstract work measure — fastd uses the costmodel's 36-bit modular-operation
// equivalents — consistent across ops so the EWMA calibration converges.
type Op struct {
	Name  string
	Units float64
}

// Config sizes a Server. Zero values pick conservative defaults.
type Config struct {
	// Workers is the number of concurrent task executors (default 1).
	Workers int
	// QueueDepth bounds the number of admitted-but-not-started tasks
	// (default 2*Workers).
	QueueDepth int
	// NsPerUnit seeds the service-time estimator before the first completed
	// task calibrates it (default 1 ns/unit; the EWMA converges within a few
	// requests).
	NsPerUnit float64
	// Reg, when non-nil, receives the admission instruments (serve.* names).
	Reg *obs.Registry
}

// Server is a bounded admission queue feeding a fixed worker pool. Safe for
// concurrent use. Create with New, stop with Drain.
type Server struct {
	workers int
	est     *Estimator

	mu       sync.RWMutex // guards queue send vs. close(queue) in Drain
	queue    chan *task
	draining atomic.Bool
	wg       sync.WaitGroup

	queuedUnits atomic.Int64 // sum of Op.Units over queued tasks (rounded)
	inflight    atomic.Int64

	// Instruments (nil-safe no-ops when Config.Reg was nil).
	mQueueDepth  *obs.Gauge
	mInflight    *obs.Gauge
	mAdmitted    *obs.Counter
	mCompleted   *obs.Counter
	mFailed      *obs.Counter
	mShed        *obs.Counter
	mQueueFull   *obs.Counter
	mDrainReject *obs.Counter
	mCanceled    *obs.Counter
	mPanics      *obs.Counter
	mWaitNS      *obs.Histogram
	mServiceNS   *obs.Histogram
	mLatencyNS   *obs.Histogram
}

// task is one admitted request. claimed arbitrates between the worker
// (starting execution) and the submitter (abandoning on ctx.Done): exactly
// one side wins the CAS, so an abandoned task is never executed and an
// executing task is never abandoned — the submitter then waits for the
// worker's verdict, which arrives quickly because the kernels poll the same
// ctx.
type task struct {
	ctx     context.Context
	fn      func(context.Context) error
	units   int64
	claimed atomic.Bool
	done    chan error // buffered(1): worker never blocks on delivery
	arrived time.Time
}

func (t *task) claim() bool { return t.claimed.CompareAndSwap(false, true) }

// New builds and starts a Server.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 2 * cfg.Workers
	}
	if cfg.NsPerUnit <= 0 {
		cfg.NsPerUnit = 1
	}
	s := &Server{
		workers: cfg.Workers,
		est:     NewEstimator(cfg.NsPerUnit),
		queue:   make(chan *task, cfg.QueueDepth),
	}
	if reg := cfg.Reg; reg != nil {
		s.mQueueDepth = reg.Gauge("serve.queue.depth")
		s.mInflight = reg.Gauge("serve.inflight")
		s.mAdmitted = reg.Counter("serve.admitted")
		s.mCompleted = reg.Counter("serve.completed")
		s.mFailed = reg.Counter("serve.failed")
		s.mShed = reg.Counter("serve.shed.deadline")
		s.mQueueFull = reg.Counter("serve.rejected.queue_full")
		s.mDrainReject = reg.Counter("serve.rejected.draining")
		s.mCanceled = reg.Counter("serve.canceled")
		s.mPanics = reg.Counter("serve.panics")
		s.mWaitNS = reg.Histogram("serve.admission_wait_ns")
		s.mServiceNS = reg.Histogram("serve.service_ns")
		s.mLatencyNS = reg.Histogram("serve.latency_ns")
		// Derived SLO gauges, refreshed on every scrape from the end-to-end
		// latency histogram (rank interpolation over the log2 buckets, so the
		// estimate is within 2x of the exact quantile). Gauges are resolved
		// here, outside the hook, because OnScrape hooks run during Snapshot
		// and must not touch the registry.
		p50 := reg.Gauge("serve.latency.p50_ns")
		p90 := reg.Gauge("serve.latency.p90_ns")
		p99 := reg.Gauge("serve.latency.p99_ns")
		lat := s.mLatencyNS
		reg.OnScrape(func() {
			snap := lat.Snapshot()
			p50.Set(int64(snap.Quantile(0.50)))
			p90.Set(int64(snap.Quantile(0.90)))
			p99.Set(int64(snap.Quantile(0.99)))
		})
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Estimator returns the server's service-time estimator (shared with callers
// that want to report externally-timed work).
func (s *Server) Estimator() *Estimator { return s.est }

// QueueLen returns the number of admitted-but-not-started tasks.
func (s *Server) QueueLen() int { return len(s.queue) }

// Do admits and executes fn under the server's concurrency limits, returning
// fn's error. Admission is non-blocking: a full queue, a draining server or
// an unmeetable deadline reject immediately with a typed error (never
// executing fn). Once admitted, fn runs on a worker goroutine with the
// caller's ctx; if ctx is done before a worker picks the task up, Do returns
// a cancellation-class error and the task is skipped.
func (s *Server) Do(ctx context.Context, op Op, fn func(context.Context) error) error {
	if s.draining.Load() {
		s.mDrainReject.Inc()
		return fmt.Errorf("serve: %s rejected: %w", op.Name, ErrDraining)
	}
	if err := ctx.Err(); err != nil {
		s.mCanceled.Inc()
		return wrapCtxErr(op.Name, err)
	}
	// Deadline-aware shedding: reject on arrival when the estimated queue
	// wait plus this op's estimated service time overruns the deadline.
	// Rejecting now costs microseconds; admitting and timing out later costs
	// a worker the full service time and the client the full deadline.
	if dl, ok := ctx.Deadline(); ok {
		wait := s.est.WaitNS(float64(s.queuedUnits.Load()), s.workers)
		service := s.est.ServiceNS(op.Units)
		if need := time.Duration(wait + service); time.Until(dl) < need {
			s.mShed.Inc()
			return fmt.Errorf("serve: %s shed (estimated %v exceeds deadline): %w: %w",
				op.Name, need.Round(time.Microsecond), ErrShed, ckks.ErrDeadline)
		}
	}

	t := &task{
		ctx:     ctx,
		fn:      fn,
		units:   int64(op.Units),
		done:    make(chan error, 1),
		arrived: time.Now(),
	}

	s.mu.RLock()
	if s.draining.Load() {
		s.mu.RUnlock()
		s.mDrainReject.Inc()
		return fmt.Errorf("serve: %s rejected: %w", op.Name, ErrDraining)
	}
	// Account the units before the send so a concurrent arrival never sees
	// the queue under-reported: the worker decrements only after it pops the
	// task, so incrementing after the send would let the counter go
	// transiently negative (clamped to 0 by WaitNS) and over-admit past
	// deadlines.
	s.queuedUnits.Add(t.units)
	select {
	case s.queue <- t:
		s.mu.RUnlock()
		s.mAdmitted.Inc()
		s.mQueueDepth.Set(int64(len(s.queue)))
		obs.RequestFrom(ctx).SetPhase(obs.PhaseQueued)
	default:
		s.mu.RUnlock()
		s.queuedUnits.Add(-t.units)
		s.mQueueFull.Inc()
		return fmt.Errorf("serve: %s rejected (queue depth %d): %w", op.Name, cap(s.queue), ErrQueueFull)
	}

	select {
	case err := <-t.done:
		return err
	case <-ctx.Done():
		if t.claim() {
			// Won the race against the workers: the task is still queued and
			// will be skipped. Settle the queue accounting here (the worker
			// that eventually pops the tombstone does not know the units).
			s.queuedUnits.Add(-t.units)
			s.mCanceled.Inc()
			return wrapCtxErr(op.Name, ctx.Err())
		}
		// A worker is executing fn with the same ctx: the kernels underneath
		// poll it, so the verdict arrives within one checkpoint interval.
		return <-t.done
	}
}

// worker executes queued tasks until the queue is closed by Drain.
func (s *Server) worker() {
	defer s.wg.Done()
	for t := range s.queue {
		s.mQueueDepth.Set(int64(len(s.queue)))
		if !t.claim() {
			continue // abandoned while queued; accounting settled by Do
		}
		s.queuedUnits.Add(-t.units)
		s.mWaitNS.ObserveSince(t.arrived)
		obs.RequestFrom(t.ctx).SetPhase(obs.PhaseExecuting)
		s.inflight.Add(1)
		s.mInflight.Set(s.inflight.Load())
		start := time.Now()
		err := s.runTask(t)
		elapsed := time.Since(start)
		s.inflight.Add(-1)
		s.mInflight.Set(s.inflight.Load())
		s.mServiceNS.Observe(int64(elapsed))
		s.settle(t, err, elapsed)
	}
}

// settle records the outcome of an executed task and delivers the verdict.
func (s *Server) settle(t *task, err error, elapsed time.Duration) {
	// End-to-end latency (arrival through execution) feeds the SLO quantile
	// gauges; rejected and abandoned arrivals never reach settle and are
	// accounted by their own counters instead.
	s.mLatencyNS.ObserveSince(t.arrived)
	switch {
	case err == nil:
		s.mCompleted.Inc()
		// Only successful runs calibrate the estimator: canceled or failed
		// runs stop partway and would bias ns-per-unit low.
		s.est.Observe(float64(t.units), elapsed)
	case isCancellation(err):
		s.mCanceled.Inc()
	default:
		s.mFailed.Inc()
	}
	t.done <- err
}

// runTask runs the task body with panic isolation: a panicking handler
// poisons its one request, not the worker or its siblings.
func (s *Server) runTask(t *task) (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.mPanics.Inc()
			err = fmt.Errorf("serve: recovered %v: %w", r, ErrPanicked)
		}
	}()
	if cerr := t.ctx.Err(); cerr != nil {
		return wrapCtxErr("task", cerr)
	}
	return t.fn(t.ctx)
}

// Drain gracefully stops the server: new arrivals are rejected with
// ErrDraining, already-admitted tasks run to completion, and Drain returns
// when every worker has exited or ctx is done (whichever is first). Calling
// Drain more than once is safe; later calls just wait.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining.Swap(true) {
		close(s.queue)
	}
	s.mu.Unlock()

	idle := make(chan struct{})
	go func() { s.wg.Wait(); close(idle) }()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return wrapCtxErr("drain", ctx.Err())
	}
}

// Draining reports whether Drain has been initiated.
func (s *Server) Draining() bool { return s.draining.Load() }

// wrapCtxErr maps a context error to the package taxonomy, keeping the
// original in the chain so errors.Is matches both the typed sentinel and the
// context sentinel.
func wrapCtxErr(op string, cause error) error {
	sentinel := ckks.ErrCanceled
	if errors.Is(cause, context.DeadlineExceeded) {
		sentinel = ckks.ErrDeadline
	}
	return fmt.Errorf("serve: %s abandoned: %w: %w", op, sentinel, cause)
}

// isCancellation reports whether err is cancellation-class (caller fault,
// not downstream fault).
func isCancellation(err error) bool {
	return errors.Is(err, ckks.ErrCanceled) || errors.Is(err, ckks.ErrDeadline) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
