package fast

import (
	"errors"

	"github.com/fastfhe/fast/internal/ckks"
)

// Two sentinels are owned by this package rather than shared with the CKKS
// layer: programs and session snapshots exist only at the public API
// boundary.
var (
	// ErrInvalidProgram reports a Program that fails static validation: an
	// empty op list, a missing output, a read of an undefined register, a
	// duplicate register write, a write shadowing a program input, an input
	// that is never used, or an unknown op/method name.
	ErrInvalidProgram = errors.New("fast: invalid program")

	// ErrCorruptSnapshot reports a session snapshot that fails integrity
	// validation — truncation, bit flips, wrong magic/version or key
	// material that does not parse against the embedded configuration. The
	// checksum is verified before any parsing, so a corrupt snapshot can
	// never be partially restored into a session that would decrypt wrongly;
	// recovery paths skip the file and log instead.
	ErrCorruptSnapshot = errors.New("corrupt session snapshot")
)

// Typed error taxonomy. Every error returned by a Context method wraps one of
// these sentinels, so callers can branch on the failure class with errors.Is
// instead of matching message strings:
//
//	if _, err := ctx.Add(a, b); errors.Is(err, fast.ErrScaleMismatch) {
//	    b, _ = ctx.Rescale(b)
//	}
//
// The sentinels are shared with the internal CKKS layer — an error produced
// deep inside a kernel and one produced by boundary validation compare equal
// under errors.Is.
var (
	// ErrInvalidParameters reports a ContextConfig or parameter literal that
	// fails validation (ring degree, depth, scale or prime chain out of
	// range).
	ErrInvalidParameters = ckks.ErrInvalidParameters

	// ErrLevelMismatch reports an operand at a level an operation cannot
	// accept (e.g. below the level a linear transform was compiled at).
	ErrLevelMismatch = ckks.ErrLevelMismatch

	// ErrLevelExhausted reports an operation that must consume a level on a
	// ciphertext already at level 0 (e.g. Rescale at the chain bottom).
	ErrLevelExhausted = ckks.ErrLevelExhausted

	// ErrScaleMismatch reports an addition or subtraction whose operand
	// scales diverge beyond the rescaling drift tolerance.
	ErrScaleMismatch = ckks.ErrScaleMismatch

	// ErrSlotCountMismatch reports a vector incompatible with the slot count
	// (too many values to encode, a wrong-length mask, an oversized batch).
	ErrSlotCountMismatch = ckks.ErrSlotCountMismatch

	// ErrNotRelinearized reports a degree-2 intermediate reaching an
	// operation that requires a relinearised ciphertext. Reserved: the public
	// API always relinearises eagerly, so today this class is unreachable
	// from fast.Context, but the sentinel anchors the taxonomy for future
	// lazy-relinearisation APIs.
	ErrNotRelinearized = ckks.ErrNotRelinearized

	// ErrMethodUnavailable reports a request for a key-switching backend the
	// context was not built with (KLSS without EnableKLSS).
	ErrMethodUnavailable = ckks.ErrMethodUnavailable

	// ErrKeyMissing reports an evaluation-key lookup that found no key (e.g.
	// a rotation amount absent from ContextConfig.Rotations).
	ErrKeyMissing = ckks.ErrKeyMissing

	// ErrInvalidCiphertext reports a ciphertext violating its structural
	// invariants: nil, level out of range, limb count inconsistent with the
	// level, wrong ring degree, or a non-finite scale. Context methods
	// validate every ciphertext argument before touching kernels.
	ErrInvalidCiphertext = ckks.ErrInvalidCiphertext

	// ErrInvalidValue reports a scalar or vector entry that cannot be
	// encoded (NaN, Inf, overflow at the target scale, or a non-power-of-two
	// batch).
	ErrInvalidValue = ckks.ErrInvalidValue

	// ErrCanceled reports an operation abandoned because its context (passed
	// with WithContext or a *Ctx method) was canceled. The wrapped chain also
	// matches context.Canceled. Every pooled scratch buffer acquired by the
	// abandoned operation has been released; the input ciphertexts are
	// untouched.
	ErrCanceled = ckks.ErrCanceled

	// ErrDeadline reports an operation abandoned because its context deadline
	// expired (errors.Is also matches context.DeadlineExceeded), or a serving
	// request shed on arrival because its deadline could not be met.
	ErrDeadline = ckks.ErrDeadline
)
