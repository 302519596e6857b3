package fast

import (
	"context"
	"fmt"

	"github.com/fastfhe/fast/internal/ckks"
)

// BootstrapContextConfig describes a functional-bootstrapping context. The
// parameter regime is a demonstration one (sparse secret, shallow security):
// it exists to prove the full ModRaise → SubSum → CoeffToSlot → EvalMod →
// SlotToCoeff pipeline end to end, not to protect data.
type BootstrapContextConfig struct {
	// LogN is the ring degree exponent (default 12).
	LogN int
	// LogSlots is the packing exponent (default 4: 16 slots; the sparse
	// packing keeps the homomorphic DFT small).
	LogSlots int
	// Levels is the chain depth (default 24). One bootstrap consumes
	// ckks.DefaultBootstrapParameters().Depth() = 17 of them, so the
	// refreshed ciphertext comes back at level Levels-17.
	Levels int
	// Seed fixes all randomness.
	Seed int64
}

// BootstrapContext is a Context that can also refresh exhausted ciphertexts.
type BootstrapContext struct {
	*Context
	bt *ckks.Bootstrapper
}

// NewBootstrapContext builds a context in the bootstrapping regime — a 50-bit
// q0 under 40-bit scale primes, three 50-bit special primes with α = 3, a
// sparse (hamming-weight-16) secret, hybrid keys for ckks.BootstrapRotations
// plus conjugation — and a precomputed bootstrapper over it. It is an ordinary
// Context (same build path, truthful Config) except that its chain is not the
// one Config alone compiles to, so it cannot be snapshotted.
func NewBootstrapContext(cfg BootstrapContextConfig) (*BootstrapContext, error) {
	if cfg.LogN == 0 {
		cfg.LogN = 12
	}
	if cfg.LogSlots == 0 {
		cfg.LogSlots = 4
	}
	if cfg.Levels == 0 {
		cfg.Levels = 24
	}
	if cfg.Seed == 0 {
		cfg.Seed = 3
	}
	bp := ckks.DefaultBootstrapParameters()
	if cfg.Levels < bp.Depth() {
		return nil, fmt.Errorf("fast: bootstrap needs at least %d levels, got %d: %w", bp.Depth(), cfg.Levels, ErrInvalidParameters)
	}

	logQ := make([]int, cfg.Levels+1)
	logQ[0] = 50
	for i := 1; i < len(logQ); i++ {
		logQ[i] = 40
	}
	lit := ckks.ParametersLiteral{
		LogN:                cfg.LogN,
		LogSlots:            cfg.LogSlots,
		LogQ:                logQ,
		LogP:                []int{50, 50, 50},
		LogScale:            40,
		Alpha:               3,
		Seed:                cfg.Seed,
		SecretHammingWeight: 16,
	}
	params, err := ckks.NewParameters(lit)
	if err != nil {
		return nil, err
	}
	ctx, err := buildContext(ContextConfig{
		LogN:        cfg.LogN,
		LogSlots:    cfg.LogSlots,
		Levels:      cfg.Levels,
		LogScale:    lit.LogScale,
		Rotations:   ckks.BootstrapRotations(params),
		Conjugation: true,
		Seed:        cfg.Seed,
	}, contextSettings{}, lit, params, nil)
	if err != nil {
		return nil, err
	}
	bt, err := ckks.NewBootstrapper(params, ctx.encoder, ctx.eval, bp)
	if err != nil {
		return nil, err
	}
	return &BootstrapContext{Context: ctx, bt: bt}, nil
}

// Bootstrap refreshes a level-0 ciphertext, restoring usable multiplicative
// levels while preserving the message (to the scheme's approximation error,
// ~16 bits rms at the defaults) and its scale. Safe for concurrent use from
// the first call on: the bootstrapper holds no lazily built state.
func (c *BootstrapContext) Bootstrap(ct *Ciphertext) (*Ciphertext, error) {
	if err := c.validate(ct); err != nil {
		return nil, err
	}
	out, err := c.bt.Bootstrap(ct.ct)
	if err != nil {
		return nil, err
	}
	return &Ciphertext{out}, nil
}

// BootstrapCtx is Bootstrap with cancellation: the pipeline polls ctx between
// stages and at every level of the homomorphic DFTs, polynomial evaluation
// and squaring ladder, abandoning with an error matching
// fast.ErrCanceled or fast.ErrDeadline (and the corresponding context
// sentinel) within roughly one key-switch of ctx being done.
func (c *BootstrapContext) BootstrapCtx(ctx context.Context, ct *Ciphertext) (*Ciphertext, error) {
	if err := c.validate(ct); err != nil {
		return nil, err
	}
	out, err := c.bt.BootstrapCtx(ctx, ct.ct)
	if err != nil {
		return nil, err
	}
	return &Ciphertext{out}, nil
}

// ExhaustLevels drops a ciphertext to level 0, simulating a computation that
// consumed the whole chain.
func (c *BootstrapContext) ExhaustLevels(ct *Ciphertext) *Ciphertext {
	return &Ciphertext{c.eval.DropLevel(ct.ct, ct.ct.Level)}
}
