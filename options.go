package fast

import "context"

// This file defines the functional-options surface of the package:
//
//   - Option attaches what a Context is built with but ContextConfig does not
//     describe: an observer or a shared evk cache. WithParallelism is the one
//     Option that sets a ContextConfig field.
//   - OpOption configures a single operation call (per-call method selection,
//     rescale suppression). There is no context-wide method: an op runs KLSS
//     only when WithMethod (or its plan) says so, and hybrid otherwise.

// Option configures a Context at construction time, on top of the
// ContextConfig passed to NewContext.
type Option func(*contextSettings)

// contextSettings collects option-driven knobs that sit outside the
// parameter-set description in ContextConfig.
type contextSettings struct {
	cfg      *ContextConfig
	observer *Observer
	evk      *evkBinding // shared evk tier subscription (WithEvkCache)
}

// WithParallelism caps the number of worker goroutines each homomorphic
// operation fans its stages out to. Each stage forks once, over its coarsest
// independent unit: a ModUp over its digits, a KeyMult over its rows, a
// ModDown and a Rescale over their two components, a Mul's tensor and final
// additions and a rotation's c0 additions over their limbs; the calling
// goroutine runs one share of every fork itself.
//
//	n == 0  (the default) or 1 keeps each operation on its calling
//	        goroutine — the right setting when many goroutines evaluate
//	        concurrently, because the goroutines provide the parallelism;
//	n >= 2  uses up to n workers per operation — the right setting to cut
//	        the latency of a single stream of operations;
//	n < 0   uses GOMAXPROCS workers.
//
// This is the software analogue of the FAST accelerator's scalable lane
// parallelism: digits, components and limbs are independent, so the same
// kernels run serially, per-operation-parallel, or request-parallel without
// changing results.
func WithParallelism(n int) Option {
	return func(s *contextSettings) { s.cfg.Parallelism = n }
}

// WithObserver attaches an observability substrate to the context: every
// homomorphic operation updates per-op counters and latency histograms
// (split by key-switching backend), the key switchers record their
// ModUp/KeyMult/ModDown phase timings, the scratch pools report hit/miss
// traffic, and — when the observer was built with NewTracingObserver — each
// operation emits a wall-clock span into the Chrome trace. A nil observer
// (the default) disables everything at a single-pointer-check cost per
// operation. Read results with Context.Metrics or the Observer's
// Write*/Handler surface.
func WithObserver(ob *Observer) Option {
	return func(s *contextSettings) { s.observer = ob }
}

// OpOption configures a single homomorphic operation call. Accepted by
// Context.Mul, MulPlain, MulConst, Rotate, RotateHoisted and Conjugate.
type OpOption func(*opSettings)

// opSettings is the resolved per-call configuration.
type opSettings struct {
	method    Method
	noRescale bool
	ctx       context.Context // nil = not cancellable
}

// WithMethod routes this one operation through the given key-switching
// backend; without it the operation runs Hybrid. WithMethod mutates no shared
// state: two goroutines can evaluate with different methods on the same
// Context at the same time, which is exactly what the Aether planner's
// per-operation method assignment (paper §4.1) needs.
func WithMethod(m Method) OpOption {
	return func(s *opSettings) { s.method = m }
}

// NoRescale suppresses the automatic rescale after Mul, MulPlain and
// MulConst: the result keeps its level and carries the product scale. Use
// Context.Rescale to drop the level later — e.g. after summing several
// products at the same scale, paying one rescale instead of many.
func NoRescale() OpOption {
	return func(s *opSettings) { s.noRescale = true }
}

// WithContext makes this one operation cancellable: the kernels underneath
// poll ctx at cheap checkpoints (per limb chunk in the key-switch
// ModUp/KeyMult/ModDown passes, per level in linear transforms and
// bootstrapping) and abandon the operation with a typed error as soon as the
// context is done. The returned error matches both fast.ErrCanceled /
// fast.ErrDeadline and the underlying context.Canceled /
// context.DeadlineExceeded under errors.Is. Abandoned operations release all
// pooled scratch and leave their inputs untouched.
//
// RotateHoisted also polls between the per-rotation key multiplications that
// share the hoisted decomposition.
//
// A nil or never-cancelled context (context.Background()) adds no overhead
// beyond a single pointer check per checkpoint. This option is how every
// op that takes OpOptions is made cancellable; Bootstrap takes none, so
// BootstrapContext.BootstrapCtx takes the context directly.
func WithContext(ctx context.Context) OpOption {
	return func(s *opSettings) { s.ctx = ctx }
}
