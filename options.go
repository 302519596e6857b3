package fast

import "context"

// This file defines the functional-options surface of the package:
//
//   - Option configures NewContext (context-wide settings such as the
//     limb-parallelism budget or the default key-switching method).
//   - OpOption configures a single operation call (per-call method selection,
//     rescale suppression), making method choice stateless so one Context can
//     serve many goroutines with different methods concurrently.

// Option configures a Context at construction time. Options are applied on
// top of the ContextConfig passed to NewContext, last writer wins.
type Option func(*contextSettings)

// contextSettings collects option-driven knobs that sit outside the
// parameter-set description in ContextConfig.
type contextSettings struct {
	cfg           *ContextConfig
	defaultMethod Method
	observer      *Observer
	evk           *evkBinding // shared evk tier subscription (WithEvkCache)
}

// WithParallelism caps the number of worker goroutines each homomorphic
// operation fans its limb-level kernels (NTT, BConv/ModUp, KeyMult, ModDown,
// Rescale) out to:
//
//	n == 1  (the default) keeps each operation on its calling goroutine —
//	        the right setting when many goroutines evaluate concurrently,
//	        because the goroutines themselves provide the parallelism;
//	n >= 2  uses up to n workers per operation — the right setting to cut
//	        the latency of a single stream of operations;
//	n <= 0  uses GOMAXPROCS workers.
//
// This is the software analogue of the FAST accelerator's scalable lane
// parallelism: RNS limbs are independent, so the same kernels run serially,
// per-operation-parallel, or request-parallel without changing results.
func WithParallelism(n int) Option {
	return func(s *contextSettings) { s.cfg.Parallelism = n }
}

// WithDefaultMethod sets the key-switching backend used by operations that do
// not pass an explicit WithMethod option. The default default is Hybrid.
func WithDefaultMethod(m Method) Option {
	return func(s *contextSettings) { s.defaultMethod = m }
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

// WithRotations replaces the set of rotation amounts Galois keys are
// generated for.
func WithRotations(rotations ...int) Option {
	return func(s *contextSettings) { s.cfg.Rotations = rotations }
}

// WithConjugation toggles generation of the conjugation key.
func WithConjugation(enabled bool) Option {
	return func(s *contextSettings) { s.cfg.Conjugation = enabled }
}

// WithKLSS toggles generation of the 60-bit-chain keys for the KLSS backend.
func WithKLSS(enabled bool) Option {
	return func(s *contextSettings) { s.cfg.EnableKLSS = enabled }
}

// WithSeed fixes the randomness seed.
func WithSeed(seed int64) Option {
	return func(s *contextSettings) { s.cfg.Seed = seed }
}

// OpOption configures a single homomorphic operation call. Accepted by
// Context.Mul, MulPlain, MulConst, Rotate, RotateHoisted and Conjugate.
type OpOption func(*opSettings)

// opSettings is the resolved per-call configuration.
type opSettings struct {
	method    Method
	noRescale bool
	ctx       context.Context // nil = not cancellable
	requestID string          // folded into ctx by Context.settings
}

// WithMethod routes this one operation through the given key-switching
// backend, overriding the context default. WithMethod mutates no shared
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
// A nil or never-cancelled context (context.Background()) adds no overhead
// beyond a single pointer check per checkpoint. The *Ctx convenience methods
// (MulCtx, RotateCtx, ...) are shorthand for passing this option.
func WithContext(ctx context.Context) OpOption {
	return func(s *opSettings) { s.ctx = ctx }
}

// WithRequestID tags this one operation with a serving-request identifier:
// when the context traces (NewTracingObserver), the operation's span and the
// key-switch phase spans underneath it carry a request_id argument, so a
// Chrome trace can be filtered down to exactly the spans one request caused.
// It composes with WithContext in either order; an ID already carried by the
// WithContext context (see ContextWithRequestID) makes this option
// redundant. The empty string is a no-op.
func WithRequestID(id string) OpOption {
	return func(s *opSettings) { s.requestID = id }
}
