package fast

import (
	"context"
	"fmt"
	"strconv"

	"github.com/fastfhe/fast/internal/ckks"
	"github.com/fastfhe/fast/internal/costmodel"
	"github.com/fastfhe/fast/internal/obs"
)

// Method selects a key-switching backend. The enum is declared once, in
// internal/costmodel (the lowest package that needs it); ckks.KeySwitchMethod
// is the same alias, so a method passes from the planner to the kernels
// without conversion.
type Method = costmodel.Method

const (
	// Hybrid is the 36-bit ModUp/KeyMult/ModDown method (paper Fig. 1(a)).
	Hybrid = costmodel.Hybrid
	// KLSS is the 60-bit double-decomposition method (paper Fig. 1(b)).
	KLSS = costmodel.KLSS
)

// ContextConfig describes a functional CKKS instantiation.
type ContextConfig struct {
	// LogN is the ring-degree exponent (N = 2^LogN). Values of 11-13 run
	// comfortably on a laptop; the paper's hardware parameters use 16.
	LogN int
	// LogSlots is the packing exponent; defaults to LogN-1 (full packing).
	LogSlots int
	// Levels is the multiplicative depth (ciphertext limbs = Levels+1).
	Levels int
	// LogScale is log2 of the encoding scale Δ (default 36, the paper's
	// ciphertext word size).
	LogScale int
	// Rotations lists the rotation amounts to generate Galois keys for.
	Rotations []int
	// Conjugation requests the conjugation key.
	Conjugation bool
	// EnableKLSS additionally generates the 60-bit-chain keys so the KLSS
	// backend can run (costs ~3.7x the key storage, §3.1).
	EnableKLSS bool
	// Seed makes all randomness deterministic (0 uses a fixed default).
	Seed int64
	// Parallelism caps the per-operation goroutine fan-out of the
	// limb-level kernels (see WithParallelism): 0 or 1 = serial per op
	// (default; concurrency comes from callers), n >= 2 = up to n workers
	// per op, negative = GOMAXPROCS.
	Parallelism int
}

// DefaultConfig returns a laptop-friendly configuration exercising both
// backends.
func DefaultConfig() ContextConfig {
	return ContextConfig{
		LogN:        11,
		Levels:      5,
		LogScale:    36,
		Rotations:   []int{1, -1, 2, 4, 8},
		Conjugation: true,
		EnableKLSS:  true,
		Seed:        1,
	}
}

// Context owns a key set and evaluator over one CKKS parameter set. It is
// the entry point of the functional layer.
//
// A Context is safe for concurrent use by multiple goroutines: every
// operation draws scratch from pooled buffers, per-call options carry the
// key-switching method instead of shared state, and the default method is
// fixed at construction (WithDefaultMethod). See README.md ("Concurrency
// model") for what is shared and what is pooled.
type Context struct {
	cfg           ContextConfig          // resolved configuration (defaults applied)
	lit           ckks.ParametersLiteral // what params was compiled from
	params        *ckks.Parameters
	encoder       *ckks.Encoder
	sk            *ckks.SecretKey
	pk            *ckks.PublicKey
	enc           *ckks.Encryptor
	dec           *ckks.Decryptor
	keys          *ckks.EvaluationKeySet
	eval          *ckks.Evaluator
	defaultMethod Method      // for calls without WithMethod; immutable
	observer      *Observer   // nil unless WithObserver was passed
	evk           *evkBinding // nil unless WithEvkCache was passed
}

// Ciphertext is an encrypted vector of complex values.
type Ciphertext struct {
	ct *ckks.Ciphertext
}

// Level returns the remaining multiplicative level ℓ (-1 for a nil handle).
func (c *Ciphertext) Level() int {
	if c == nil || c.ct == nil {
		return -1
	}
	return c.ct.Level
}

// Scale returns the current encoding scale (0 for a nil handle).
func (c *Ciphertext) Scale() float64 {
	if c == nil || c.ct == nil {
		return 0
	}
	return c.ct.Scale
}

// NewContext compiles the configuration, generates all keys and returns a
// ready-to-use context. Options are applied on top of cfg (last writer
// wins): NewContext(fast.DefaultConfig(), fast.WithParallelism(4),
// fast.WithDefaultMethod(fast.KLSS)).
func NewContext(cfg ContextConfig, opts ...Option) (*Context, error) {
	cfg, settings, err := resolveConfig(cfg, opts)
	if err != nil {
		return nil, err
	}
	lit := parametersLiteral(cfg)
	params, err := ckks.NewParameters(lit)
	if err != nil {
		return nil, err
	}
	return buildContext(cfg, settings, lit, params, nil)
}

// resolveConfig applies options on top of cfg, fills defaults and validates
// the cross-field invariants shared by fresh construction and snapshot
// restoration. The returned cfg is fully resolved: compiling it again yields
// the identical parameter set, which is why it can be embedded verbatim in a
// session snapshot.
func resolveConfig(cfg ContextConfig, opts []Option) (ContextConfig, contextSettings, error) {
	settings := contextSettings{cfg: &cfg, defaultMethod: Hybrid}
	for _, o := range opts {
		o(&settings)
	}
	if cfg.LogN == 0 {
		cfg = DefaultConfig()
		settings.cfg = &cfg
		for _, o := range opts {
			o(&settings)
		}
	}
	if cfg.LogSlots == 0 {
		cfg.LogSlots = cfg.LogN - 1
	}
	if cfg.LogScale == 0 {
		cfg.LogScale = 36
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Levels < 1 {
		return cfg, settings, fmt.Errorf("fast: need at least one multiplicative level: %w", ErrInvalidParameters)
	}
	if settings.defaultMethod == KLSS && !cfg.EnableKLSS {
		return cfg, settings, fmt.Errorf("fast: WithDefaultMethod(KLSS) requires EnableKLSS: %w", ErrMethodUnavailable)
	}
	return cfg, settings, nil
}

// parametersLiteral maps a resolved ContextConfig onto the CKKS parameter
// literal of the general regime. The mapping is deterministic and prime-chain
// generation depends only on the literal, so the same config always compiles
// to bit-identical ring tables — the property snapshot restoration relies on
// to pair persisted key material with freshly compiled parameters.
func parametersLiteral(cfg ContextConfig) ckks.ParametersLiteral {
	logQ := make([]int, cfg.Levels+1)
	logQ[0] = cfg.LogScale + 14 // q0 absorbs the message plus noise margin
	if logQ[0] > 55 {
		logQ[0] = 55
	}
	for i := 1; i < len(logQ); i++ {
		logQ[i] = cfg.LogScale
	}
	lit := ckks.ParametersLiteral{
		LogN:     cfg.LogN,
		LogSlots: cfg.LogSlots,
		LogQ:     logQ,
		LogP:     []int{logQ[0], logQ[0]},
		LogScale: cfg.LogScale,
		Alpha:    2,
		Seed:     cfg.Seed,
	}
	if cfg.EnableKLSS {
		lit.LogT = []int{60, 60}
		lit.AlphaT = 2
	}
	return lit
}

// buildContext is the one construction path: NewContext, NewBootstrapContext
// and SessionSnapshot.Restore each describe a regime — the resolved cfg, the
// literal params was compiled from — and end here. Key material is generated
// from the parameter seed (hybrid always, KLSS when cfg enables it, Galois
// keys for cfg.Rotations and cfg.Conjugation) or, when snap is non-nil, read
// from the snapshot's key payload. The encryptor's sampler stream is seeded
// per restore epoch, so a restored session never replays pre-crash
// encryption randomness; epoch 0 is the fresh-construction stream.
func buildContext(cfg ContextConfig, settings contextSettings, lit ckks.ParametersLiteral,
	params *ckks.Parameters, snap *SessionSnapshot) (*Context, error) {
	ctx := &Context{cfg: cfg, lit: lit, params: params, defaultMethod: settings.defaultMethod,
		observer: settings.observer, evk: settings.evk}
	encSeed := params.Seed() + 0x5eed
	if snap == nil {
		kgen := ckks.NewKeyGenerator(params)
		ctx.sk = kgen.GenSecretKey()
		ctx.pk = kgen.GenPublicKey(ctx.sk)
		methods := []Method{Hybrid}
		if cfg.EnableKLSS {
			methods = append(methods, KLSS)
		}
		var err error
		if ctx.keys, err = kgen.GenEvaluationKeySet(ctx.sk, methods, cfg.Rotations, cfg.Conjugation); err != nil {
			return nil, err
		}
	} else {
		if err := snap.readKeys(ctx); err != nil {
			return nil, err
		}
		encSeed += int64(snap.Meta.Restores) * 0x9e3779b9
	}
	ctx.encoder = ckks.NewEncoder(params)
	ctx.enc = ckks.NewEncryptorWithSeed(params, ctx.pk, encSeed)
	ctx.dec = ckks.NewDecryptor(params, ctx.sk)
	if ctx.observer != nil {
		ctx.enc.SetObserver(ctx.observer.unwrap())
	}
	var err error
	ctx.eval, err = ckks.NewEvaluatorOptions(params, ctx.keys, ckks.EvaluatorOptions{
		Parallelism: cfg.Parallelism,
		Observer:    ctx.observer.unwrap(),
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.eval.SetMethod(ctx.defaultMethod); err != nil {
		return nil, err
	}
	return ctx, nil
}

// validate enforces the ciphertext structural invariants at the public API
// boundary: non-nil handles and internally consistent level/limb/degree/scale
// state. Violations wrap ErrInvalidCiphertext. The check is O(levels), not
// O(N) — it never scans coefficients.
func (c *Context) validate(cts ...*Ciphertext) error {
	for _, ct := range cts {
		if ct == nil || ct.ct == nil {
			return fmt.Errorf("fast: nil ciphertext: %w", ErrInvalidCiphertext)
		}
		if err := ct.ct.Validate(c.params); err != nil {
			return err
		}
	}
	return nil
}

// settings resolves per-call options against the context default. A
// WithRequestID tag is folded into the call context here, so option order
// never matters.
func (c *Context) settings(opts []OpOption) opSettings {
	s := opSettings{method: c.defaultMethod}
	for _, o := range opts {
		o(&s)
	}
	if s.requestID != "" {
		base := s.ctx
		if base == nil {
			base = context.Background()
		}
		s.ctx = obs.WithRequestID(base, s.requestID)
	}
	return s
}

// Observer returns the observer attached with WithObserver (nil when the
// context is unobserved).
func (c *Context) Observer() *Observer { return c.observer }

// Metrics returns a point-in-time snapshot of the context's instruments: op
// counts and latency histograms per operation and key-switching backend,
// key-switch phase timings, encryptor and sampler activity, and scratch-pool
// traffic. On an unobserved context the snapshot is empty.
func (c *Context) Metrics() *MetricsSnapshot { return c.observer.Metrics() }

// Config returns the resolved configuration the context was built from
// (defaults applied). Compiling it again yields an identical parameter set,
// so it is the parameter description embedded in session snapshots.
func (c *Context) Config() ContextConfig { return c.cfg }

// Slots returns the number of packed values per ciphertext.
func (c *Context) Slots() int { return c.params.Slots() }

// MaxLevel returns the multiplicative depth of the parameter set.
func (c *Context) MaxLevel() int { return c.params.MaxLevel() }

// SupportsKLSS reports whether the KLSS backend is available.
func (c *Context) SupportsKLSS() bool { return c.params.SupportsKLSS() }

// SecurityEstimate returns a coarse classical-security estimate in bits for
// the context's parameters (HE-Standard table heuristic — a sanity gauge,
// not a cryptographic analysis). The default laptop-sized parameter sets
// are deliberately NOT secure.
func (c *Context) SecurityEstimate() float64 { return c.params.SecurityEstimate() }

// IsSecure reports whether the estimate clears 128 bits.
func (c *Context) IsSecure() bool { return c.params.IsSecure() }

// Method returns the default key-switching backend, fixed at construction
// with WithDefaultMethod. Per-call overrides use WithMethod; there is no
// runtime mutator (the former SetMethod shim is gone — a mutable process-wide
// mode cannot coexist with concurrent planned execution).
func (c *Context) Method() Method { return c.defaultMethod }

// Encrypt encodes and encrypts a vector (padded to the slot count). Safe for
// concurrent use (the sampler behind the encryptor is serialised).
func (c *Context) Encrypt(values []complex128) (*Ciphertext, error) {
	pt, err := c.encoder.Encode(values)
	if err != nil {
		return nil, err
	}
	ct, err := c.enc.Encrypt(pt)
	if err != nil {
		return nil, err
	}
	return &Ciphertext{ct}, nil
}

// Decrypt decrypts and decodes a ciphertext. A nil or structurally invalid
// ciphertext decrypts to nil (the signature predates the error taxonomy;
// every other entry point returns a typed error instead).
func (c *Context) Decrypt(ct *Ciphertext) []complex128 {
	if c.validate(ct) != nil {
		return nil
	}
	return c.encoder.Decode(c.dec.Decrypt(ct.ct))
}

// Add returns a+b.
func (c *Context) Add(a, b *Ciphertext) (*Ciphertext, error) {
	if err := c.validate(a, b); err != nil {
		return nil, err
	}
	out, err := c.eval.Add(a.ct, b.ct)
	return wrap(out, err)
}

// Sub returns a-b.
func (c *Context) Sub(a, b *Ciphertext) (*Ciphertext, error) {
	if err := c.validate(a, b); err != nil {
		return nil, err
	}
	out, err := c.eval.Sub(a.ct, b.ct)
	return wrap(out, err)
}

// Mul returns a*b, relinearised and (unless NoRescale is passed) rescaled.
// The key-switching backend is chosen per call: ctx.Mul(a, b,
// fast.WithMethod(fast.KLSS)).
func (c *Context) Mul(a, b *Ciphertext, opts ...OpOption) (*Ciphertext, error) {
	if err := c.validate(a, b); err != nil {
		return nil, err
	}
	s := c.settings(opts)
	c.evk.request(c.params, "relin", min(a.ct.Level, b.ct.Level), s.method)
	prod, err := c.eval.MulRelinCtx(s.ctx, a.ct, b.ct, s.method)
	if err != nil {
		return nil, err
	}
	if s.noRescale {
		return &Ciphertext{prod}, nil
	}
	out, err := c.eval.RescaleCtx(s.ctx, prod)
	return wrap(out, err)
}

// MulCtx is Mul with cancellation: ctx is polled at cheap checkpoints inside
// the tensoring, relinearisation and rescale kernels, and the operation
// abandons with an error matching fast.ErrCanceled or fast.ErrDeadline (and
// the corresponding context sentinel) as soon as ctx is done. Shorthand for
// Mul(a, b, append(opts, WithContext(ctx))...).
func (c *Context) MulCtx(ctx context.Context, a, b *Ciphertext, opts ...OpOption) (*Ciphertext, error) {
	return c.Mul(a, b, append(opts[:len(opts):len(opts)], WithContext(ctx))...)
}

// MulPlain multiplies by a plaintext vector and (unless NoRescale is passed)
// rescales.
func (c *Context) MulPlain(a *Ciphertext, values []complex128, opts ...OpOption) (*Ciphertext, error) {
	if err := c.validate(a); err != nil {
		return nil, err
	}
	s := c.settings(opts)
	pt, err := c.encoder.EncodeAtLevel(values, a.ct.Level, c.params.Scale())
	if err != nil {
		return nil, err
	}
	prod, err := c.eval.MulPlain(a.ct, pt)
	if err != nil {
		return nil, err
	}
	if s.noRescale {
		return &Ciphertext{prod}, nil
	}
	out, err := c.eval.RescaleCtx(s.ctx, prod)
	return wrap(out, err)
}

// AddPlain adds a plaintext vector.
func (c *Context) AddPlain(a *Ciphertext, values []complex128) (*Ciphertext, error) {
	if err := c.validate(a); err != nil {
		return nil, err
	}
	pt, err := c.encoder.EncodeAtLevel(values, a.ct.Level, a.ct.Scale)
	if err != nil {
		return nil, err
	}
	out, err := c.eval.AddPlain(a.ct, pt)
	return wrap(out, err)
}

// MulConst multiplies by a real constant and (unless NoRescale is passed)
// rescales.
func (c *Context) MulConst(a *Ciphertext, v float64, opts ...OpOption) (*Ciphertext, error) {
	if err := c.validate(a); err != nil {
		return nil, err
	}
	s := c.settings(opts)
	prod, err := c.eval.MulConst(a.ct, v)
	if err != nil {
		return nil, err
	}
	if s.noRescale {
		return &Ciphertext{prod}, nil
	}
	out, err := c.eval.RescaleCtx(s.ctx, prod)
	return wrap(out, err)
}

// AddConst adds a real constant.
func (c *Context) AddConst(a *Ciphertext, v float64) (*Ciphertext, error) {
	if err := c.validate(a); err != nil {
		return nil, err
	}
	out, err := c.eval.AddConst(a.ct, v)
	return wrap(out, err)
}

// Rescale divides a by its top chain prime, dropping one level and the
// corresponding scale factor. Pairs with NoRescale: accumulate several
// unrescaled products at the same scale, then rescale the sum once.
func (c *Context) Rescale(a *Ciphertext, opts ...OpOption) (*Ciphertext, error) {
	if err := c.validate(a); err != nil {
		return nil, err
	}
	s := c.settings(opts)
	out, err := c.eval.RescaleCtx(s.ctx, a.ct)
	return wrap(out, err)
}

// Rotate cyclically rotates the slots by r (positive = towards lower
// indices). The key-switching backend is chosen per call via WithMethod.
func (c *Context) Rotate(a *Ciphertext, r int, opts ...OpOption) (*Ciphertext, error) {
	if err := c.validate(a); err != nil {
		return nil, err
	}
	s := c.settings(opts)
	c.evk.request(c.params, "rot:"+strconv.Itoa(r), a.ct.Level, s.method)
	out, err := c.eval.RotateCtx(s.ctx, a.ct, r, s.method)
	return wrap(out, err)
}

// RotateCtx is Rotate with cancellation (see MulCtx for semantics).
func (c *Context) RotateCtx(ctx context.Context, a *Ciphertext, r int, opts ...OpOption) (*Ciphertext, error) {
	return c.Rotate(a, r, append(opts[:len(opts):len(opts)], WithContext(ctx))...)
}

// RotateHoisted produces all requested rotations of one ciphertext sharing a
// single decomposition (the hoisting optimisation, §2.2.3).
func (c *Context) RotateHoisted(a *Ciphertext, rotations []int, opts ...OpOption) (map[int]*Ciphertext, error) {
	if err := c.validate(a); err != nil {
		return nil, err
	}
	s := c.settings(opts)
	for _, r := range rotations {
		if r != 0 {
			c.evk.request(c.params, "rot:"+strconv.Itoa(r), a.ct.Level, s.method)
		}
	}
	outs, err := c.eval.RotateHoistedCtx(s.ctx, a.ct, rotations, s.method)
	if err != nil {
		return nil, err
	}
	m := make(map[int]*Ciphertext, len(outs))
	for r, ct := range outs {
		m[r] = &Ciphertext{ct}
	}
	return m, nil
}

// RotateHoistedCtx is RotateHoisted with cancellation (see MulCtx for
// semantics); ctx is additionally polled between the per-rotation key
// multiplications that share the hoisted decomposition.
func (c *Context) RotateHoistedCtx(ctx context.Context, a *Ciphertext, rotations []int, opts ...OpOption) (map[int]*Ciphertext, error) {
	return c.RotateHoisted(a, rotations, append(opts[:len(opts):len(opts)], WithContext(ctx))...)
}

// Conjugate returns the slot-wise complex conjugate.
func (c *Context) Conjugate(a *Ciphertext, opts ...OpOption) (*Ciphertext, error) {
	if err := c.validate(a); err != nil {
		return nil, err
	}
	s := c.settings(opts)
	c.evk.request(c.params, "conj", a.ct.Level, s.method)
	out, err := c.eval.ConjugateCtx(s.ctx, a.ct, s.method)
	return wrap(out, err)
}

// ConjugateCtx is Conjugate with cancellation (see MulCtx for semantics).
func (c *Context) ConjugateCtx(ctx context.Context, a *Ciphertext, opts ...OpOption) (*Ciphertext, error) {
	return c.Conjugate(a, append(opts[:len(opts):len(opts)], WithContext(ctx))...)
}

func wrap(ct *ckks.Ciphertext, err error) (*Ciphertext, error) {
	if err != nil {
		return nil, err
	}
	return &Ciphertext{ct}, nil
}
