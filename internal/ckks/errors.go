package ckks

import "errors"

// Typed error taxonomy. Every error the package returns across a public
// boundary wraps one of these sentinels, so callers can branch with
// errors.Is(err, ckks.ErrScaleMismatch) instead of string matching. The
// sentinels deliberately carry no context of their own — call sites wrap them
// with fmt.Errorf("...: %w", Err...) and the operands that violated the
// invariant.
var (
	// ErrInvalidParameters marks a ParametersLiteral that fails validation
	// (ring degree, slot count, prime chain or scale out of range).
	ErrInvalidParameters = errors.New("invalid parameters")

	// ErrLevelMismatch marks an operand whose level is outside the range an
	// operation supports (e.g. a plaintext encoded above the chain, or a
	// ciphertext below the level a linear transform was compiled at).
	ErrLevelMismatch = errors.New("level mismatch")

	// ErrLevelExhausted marks an operation that needs to consume a level on a
	// level-0 ciphertext (Rescale at the bottom of the chain).
	ErrLevelExhausted = errors.New("level exhausted")

	// ErrScaleMismatch marks an addition/subtraction whose operand scales
	// diverge by more than the rescaling drift tolerance.
	ErrScaleMismatch = errors.New("scale mismatch")

	// ErrSlotCountMismatch marks a vector whose length is incompatible with
	// the parameter set's slot count (too many encode values, a mask of the
	// wrong length, or a batch exceeding the slots).
	ErrSlotCountMismatch = errors.New("slot count mismatch")

	// ErrNotRelinearized marks a degree-2 intermediate reaching an operation
	// that requires a relinearised (degree-1) ciphertext.
	ErrNotRelinearized = errors.New("ciphertext not relinearized")

	// ErrMethodUnavailable marks a request for a key-switching backend the
	// evaluator or parameter set was not built with (e.g. KLSS without an
	// auxiliary chain).
	ErrMethodUnavailable = errors.New("key-switching method unavailable")

	// ErrKeyMissing marks an evaluation-key lookup that found no key for the
	// requested method/Galois element (rotation amount not in the key set).
	ErrKeyMissing = errors.New("evaluation key missing")

	// ErrInvalidCiphertext marks a ciphertext whose invariants are broken:
	// level out of chain range, limb count inconsistent with the level, ring
	// degree mismatch, or a non-finite scale. Returned by validation at
	// deserialisation and at the public API boundary.
	ErrInvalidCiphertext = errors.New("invalid ciphertext")

	// ErrInvalidValue marks a scalar or vector entry that cannot be encoded
	// (NaN, Inf, or overflow at the target scale).
	ErrInvalidValue = errors.New("invalid value")

	// ErrCanceled marks an operation abandoned because its context was
	// canceled. The wrapped chain also matches context.Canceled, and every
	// pooled scratch buffer acquired by the operation has been released.
	ErrCanceled = errors.New("operation canceled")

	// ErrDeadline marks an operation abandoned because its context deadline
	// expired (errors.Is also matches context.DeadlineExceeded), or a serving
	// request shed on arrival because its deadline could not be met.
	ErrDeadline = errors.New("deadline exceeded")
)
