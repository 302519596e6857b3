package fast

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"slices"

	"github.com/fastfhe/fast/internal/ckks"
)

// Serialize writes the ciphertext to w in the package's versioned binary wire
// format (tagged header, level, scale, then the RNS coefficient rows of both
// components). Because ciphertext polynomials are arena-backed (one contiguous
// []uint64 per poly, rows in limb order), each component is emitted as one
// little-endian pass over its backing — the wire bytes are identical to the
// historical per-row encoding. The format is what the fastd serving
// daemon moves over HTTP; ReadCiphertext is the inverse.
func (c *Ciphertext) Serialize(w io.Writer) error {
	return c.ct.Serialize(w)
}

// WireSize returns the length in bytes of the ciphertext's wire form.
func (c *Ciphertext) WireSize() int { return c.ct.WireSize() }

// AppendBinary appends the ciphertext's wire form — the bytes Serialize
// writes — to dst and returns the extended slice. With cap(dst)-len(dst) >=
// WireSize() it allocates nothing; the serving daemon encodes into pooled
// buffers this way.
func (c *Ciphertext) AppendBinary(dst []byte) []byte { return c.ct.AppendBinary(dst) }

// ReadCiphertext reads a ciphertext in the Serialize wire format and
// validates it against the context's parameters: level within the chain, limb
// counts consistent with the level, coefficient rows inside their moduli, and
// a finite positive scale. Malformed or truncated input returns an error
// wrapping fast.ErrInvalidCiphertext — never a panic and never a structurally
// broken handle. It reads exactly one ciphertext's bytes from r, so
// ciphertexts written back to back come back one per call.
func (c *Context) ReadCiphertext(r io.Reader) (*Ciphertext, error) {
	ct, err := ckks.ReadCiphertext(r, c.params)
	if err != nil {
		return nil, err
	}
	return &Ciphertext{ct}, nil
}

// ReadCiphertextBytes is ReadCiphertext over wire bytes already in memory:
// same validation, same errors, no reader and no intermediate copy. Like a
// stream read it stops at the end of the ciphertext (trailing bytes are not
// looked at). b is not retained — the caller may reuse it on return.
func (c *Context) ReadCiphertextBytes(b []byte) (*Ciphertext, error) {
	ct, err := ckks.ReadCiphertextBytes(b, c.params)
	if err != nil {
		return nil, err
	}
	return &Ciphertext{ct}, nil
}

// ---- Session snapshots -----------------------------------------------------

// SessionMeta is the serving-layer metadata a session snapshot carries
// alongside the cryptographic material. The fields are owned by the caller
// (fastd stores its session ID and creation time here); the
// snapshot machinery itself only interprets Restores.
type SessionMeta struct {
	// ID is the serving-layer session identifier.
	ID string `json:"id,omitempty"`
	// CreatedUnixNano is the session's creation time.
	CreatedUnixNano int64 `json:"created_unix_nano,omitempty"`
	// Restores counts completed restorations of this session. It doubles as
	// the encryptor's reseeding epoch: Restore derives the deterministic
	// sampler seed from it, so bumping the counter before each restoration
	// guarantees a restored session never replays pre-crash encryption
	// randomness (randomness reuse under one public key leaks plaintext
	// differences).
	Restores uint64 `json:"restores,omitempty"`
}

// Snapshot wire layout (little-endian):
//
//	magic   [8]byte  "FASTSNP\x01"
//	hdrLen  uint32   length of the JSON header
//	header  []byte   {"meta":..., "config":...}
//	keyLen  uint64   length of the key payload
//	keys    []byte   sk | pk | evaluation-key set (internal/ckks wire format)
//	sum     [32]byte SHA-256 over every preceding byte
//
// The checksum is verified BEFORE any parsing: a flipped bit anywhere in the
// stream surfaces as ErrCorruptSnapshot, never as a structurally plausible
// but wrong key set. Canonical ordering in the key-set serialisation makes
// identical sessions produce identical snapshot bytes.
var snapshotMagic = [8]byte{'F', 'A', 'S', 'T', 'S', 'N', 'P', 1}

const (
	snapshotMaxHeader = 1 << 20 // sanity bound on the JSON header
	snapshotMaxKeys   = 1 << 31 // sanity bound on the key payload
)

// snapshotHeader is the JSON head of a snapshot: everything needed to
// rebuild the parameter set plus the serving-layer metadata. Members it does
// not name are ignored, so a header that still carries the retired
// "default_method" decodes to the same session.
type snapshotHeader struct {
	Meta   SessionMeta   `json:"meta"`
	Config ContextConfig `json:"config"`
}

// SessionSnapshot is a decoded (checksum-verified) session snapshot whose
// key material has not yet been expanded into a Context. Callers may adjust
// Meta between DecodeSessionSnapshot and Restore — the restore path bumps
// Meta.Restores so each restoration gets a fresh encryptor stream.
type SessionSnapshot struct {
	Meta   SessionMeta
	Config ContextConfig

	keyBytes []byte
}

// WriteSessionSnapshot serialises the context's full session state — resolved
// configuration, secret/public/relinearization/Galois key material — plus the
// caller's metadata, in the versioned, checksummed snapshot format.
// ReadSessionSnapshot (or DecodeSessionSnapshot + Restore) is the inverse.
// KLSS keys are not written: the restored context derives them from the seed
// and the secret on its first KLSS op, byte-identical to the source's. (A
// context restored from a payload that stored them writes them back.)
//
// A snapshot stores the configuration, not the prime chain: Restore compiles
// the general regime from it (or shares a live context's compile of it). A
// context whose parameters that would not reproduce (NewBootstrapContext's
// chain) cannot be snapshotted and returns ErrInvalidParameters.
func (c *Context) WriteSessionSnapshot(w io.Writer, meta SessionMeta) error {
	if !reflect.DeepEqual(c.lit, parametersLiteral(c.cfg)) {
		return fmt.Errorf("fast: context parameters are not derivable from its Config, "+
			"a snapshot of it could not be restored: %w", ErrInvalidParameters)
	}
	hdr, err := json.Marshal(snapshotHeader{Meta: meta, Config: c.cfg})
	if err != nil {
		return fmt.Errorf("fast: marshal snapshot header: %w", err)
	}
	buf := append([]byte(nil), snapshotMagic[:]...)
	buf = append(binary.LittleEndian.AppendUint32(buf, uint32(len(hdr))), hdr...)
	buf = binary.LittleEndian.AppendUint64(buf, 0) // keyLen, backfilled once the keys are in
	keysAt := len(buf)
	buf = c.keys.AppendBinary(c.pk.AppendBinary(c.sk.AppendBinary(buf)))
	binary.LittleEndian.PutUint64(buf[keysAt-8:], uint64(len(buf)-keysAt))
	sum := sha256.Sum256(buf)
	_, err = w.Write(append(buf, sum[:]...))
	return err
}

// DecodeSessionSnapshot verifies and parses a session snapshot: checksum
// first (any corruption — truncation, bit flips, a foreign file — returns an
// error wrapping ErrCorruptSnapshot before a single key byte is parsed),
// then the JSON header. Key material stays in its wire form until Restore.
func DecodeSessionSnapshot(data []byte) (*SessionSnapshot, error) {
	const minLen = 8 + 4 + 8 + sha256.Size
	if len(data) < minLen {
		return nil, fmt.Errorf("fast: snapshot truncated (%d bytes): %w", len(data), ErrCorruptSnapshot)
	}
	if !bytes.Equal(data[:8], snapshotMagic[:]) {
		return nil, fmt.Errorf("fast: bad snapshot magic: %w", ErrCorruptSnapshot)
	}
	body, sum := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	want := sha256.Sum256(body)
	if !bytes.Equal(sum, want[:]) {
		return nil, fmt.Errorf("fast: snapshot checksum mismatch: %w", ErrCorruptSnapshot)
	}

	rest := body[8:]
	hdrLen := binary.LittleEndian.Uint32(rest[:4])
	rest = rest[4:]
	if hdrLen > snapshotMaxHeader || int(hdrLen) > len(rest) {
		return nil, fmt.Errorf("fast: snapshot header length %d out of range: %w", hdrLen, ErrCorruptSnapshot)
	}
	var hdr snapshotHeader
	if err := json.Unmarshal(rest[:hdrLen], &hdr); err != nil {
		return nil, fmt.Errorf("fast: snapshot header: %v: %w", err, ErrCorruptSnapshot)
	}
	rest = rest[hdrLen:]
	if len(rest) < 8 {
		return nil, fmt.Errorf("fast: snapshot truncated before key payload: %w", ErrCorruptSnapshot)
	}
	keyLen := binary.LittleEndian.Uint64(rest[:8])
	rest = rest[8:]
	if keyLen > snapshotMaxKeys || keyLen != uint64(len(rest)) {
		return nil, fmt.Errorf("fast: snapshot key payload length %d does not match %d remaining bytes: %w",
			keyLen, len(rest), ErrCorruptSnapshot)
	}
	return &SessionSnapshot{Meta: hdr.Meta, Config: hdr.Config, keyBytes: rest}, nil
}

// Restore expands the snapshot into a ready-to-use Context: the parameter
// set is the one the embedded configuration compiles to (deterministic — the
// same config always yields bit-identical ring tables) and the persisted key
// material is installed in place of key generation, so restored sessions
// decrypt pre-crash ciphertexts bit-identically. Restoration costs the key
// decode, plus compilation only when no live context shares the
// configuration; never a keygen. A config that enables KLSS gets its KLSS
// keys back by derivation on the first KLSS op, which pays for it.
//
// Options may attach an observer or a shared evk cache. WithParallelism, the
// one option that alters the configuration, is rejected with
// ErrInvalidParameters unless it restates the embedded value, because the
// persisted keys were generated for exactly the embedded configuration.
//
// The encryptor's deterministic sampler is seeded from Meta.Restores, so
// each restoration epoch draws a fresh randomness stream (see SessionMeta).
func (s *SessionSnapshot) Restore(opts ...Option) (*Context, error) {
	cfg := s.Config
	cfg.Rotations = slices.Clone(s.Config.Rotations)
	settings := contextSettings{cfg: &cfg}
	for _, o := range opts {
		o(&settings)
	}
	if !reflect.DeepEqual(cfg, s.Config) {
		return nil, fmt.Errorf("fast: config-mutating options are invalid on snapshot restore "+
			"(keys were generated for the persisted config): %w", ErrInvalidParameters)
	}
	lit := parametersLiteral(cfg)
	params, err := ckks.NewParameters(lit)
	if err != nil {
		return nil, err
	}
	return buildContext(cfg, settings, lit, params, s)
}

// readKeys installs the snapshot's key payload — sk | pk | evaluation-key set
// — into ctx, decoded straight from the verified bytes and validated against
// ctx's parameters.
func (s *SessionSnapshot) readKeys(ctx *Context) error {
	b := s.keyBytes
	var err error
	if ctx.sk, b, err = ckks.ParseSecretKey(b, ctx.params); err != nil {
		return fmt.Errorf("fast: snapshot secret key: %w: %w", err, ErrCorruptSnapshot)
	}
	if ctx.pk, b, err = ckks.ParsePublicKey(b, ctx.params); err != nil {
		return fmt.Errorf("fast: snapshot public key: %w: %w", err, ErrCorruptSnapshot)
	}
	if ctx.keys, b, err = ckks.ParseEvaluationKeySet(b, ctx.params); err != nil {
		return fmt.Errorf("fast: snapshot evaluation keys: %w: %w", err, ErrCorruptSnapshot)
	}
	if len(b) != 0 {
		return fmt.Errorf("fast: %d trailing bytes after snapshot key material: %w", len(b), ErrCorruptSnapshot)
	}
	return nil
}

// ReadSessionSnapshot reads, verifies and restores a session snapshot in one
// step, returning the rebuilt context and the stored metadata. Callers that
// need to bump Meta.Restores before expansion (every restoring daemon
// should) use DecodeSessionSnapshot + Restore instead.
func ReadSessionSnapshot(r io.Reader, opts ...Option) (*Context, SessionMeta, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, SessionMeta{}, fmt.Errorf("fast: read snapshot: %w", err)
	}
	snap, err := DecodeSessionSnapshot(data)
	if err != nil {
		return nil, SessionMeta{}, err
	}
	ctx, err := snap.Restore(opts...)
	if err != nil {
		return nil, SessionMeta{}, err
	}
	return ctx, snap.Meta, nil
}
