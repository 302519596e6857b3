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
//	magic   [8]byte  "FASTSNP\x02"
//	hdrLen  uint32   length of the JSON header
//	header  []byte   {"meta":..., "config":...}
//	sum     [32]byte SHA-256 over every preceding byte
//
// The header is the whole session: every key is a deterministic function of
// the resolved config (sk and pk from the stream Seed seeds, each evaluation
// key from one of its own), so Restore regenerates them rather than reading
// them. The checksum is verified BEFORE any parsing: a flipped bit
// anywhere in the stream surfaces as ErrCorruptSnapshot.
//
// A legacy "FASTSNP\x01" file carries keyLen uint64 | keys (sk | pk |
// evaluation keys) between the header and the sum. It restores by the same
// regeneration, and only if its payload starts with the regenerated secret
// key's wire bytes; the rest of the payload is not read.
var snapshotMagic = [8]byte{'F', 'A', 'S', 'T', 'S', 'N', 'P', 2}

const (
	snapshotLegacy    = 1       // the format version whose files carry keys
	snapshotMaxHeader = 1 << 20 // sanity bound on the JSON header
)

// snapshotHeader is the JSON head of a snapshot: everything needed to
// rebuild the session plus the serving-layer metadata. Members it does not
// name are ignored, so a header that still carries the retired
// "default_method" decodes to the same session.
type snapshotHeader struct {
	Meta   SessionMeta   `json:"meta"`
	Config ContextConfig `json:"config"`
}

// SessionSnapshot is a decoded (checksum-verified) session snapshot whose
// keys have not yet been regenerated into a Context. Callers may adjust Meta
// between DecodeSessionSnapshot and Restore — the restore path bumps
// Meta.Restores so each restoration gets a fresh encryptor stream.
type SessionSnapshot struct {
	Meta   SessionMeta
	Config ContextConfig

	legacyKeys []byte // a legacy file's key payload; nil for the current format
}

// WriteSessionSnapshot serialises the context's session — its resolved
// configuration plus the caller's metadata — in the versioned, checksummed
// snapshot format. No key material is written: ReadSessionSnapshot (or
// DecodeSessionSnapshot + Restore) regenerates every key from the
// configuration, byte-identical to this context's.
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
	buf := append(make([]byte, 0, 8+4+len(hdr)+sha256.Size), snapshotMagic[:]...)
	buf = append(binary.LittleEndian.AppendUint32(buf, uint32(len(hdr))), hdr...)
	sum := sha256.Sum256(buf)
	_, err = w.Write(append(buf, sum[:]...))
	return err
}

// DecodeSessionSnapshot verifies and parses a session snapshot: checksum
// first (any corruption — truncation, bit flips, a foreign file — returns an
// error wrapping ErrCorruptSnapshot before a byte is parsed), then the JSON
// header, and a legacy file's key payload framing.
func DecodeSessionSnapshot(data []byte) (*SessionSnapshot, error) {
	const minLen = 8 + 4 + sha256.Size
	if len(data) < minLen {
		return nil, fmt.Errorf("fast: snapshot truncated (%d bytes): %w", len(data), ErrCorruptSnapshot)
	}
	version := data[7]
	if !bytes.Equal(data[:7], snapshotMagic[:7]) || (version != snapshotMagic[7] && version != snapshotLegacy) {
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
	s := &SessionSnapshot{Meta: hdr.Meta, Config: hdr.Config}
	rest = rest[hdrLen:]
	if version == snapshotLegacy {
		if len(rest) < 8 || binary.LittleEndian.Uint64(rest) != uint64(len(rest)-8) {
			return nil, fmt.Errorf("fast: legacy snapshot key payload framing does not match %d remaining bytes: %w",
				len(rest), ErrCorruptSnapshot)
		}
		s.legacyKeys, rest = rest[8:], nil
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("fast: %d bytes after the snapshot header: %w", len(rest), ErrCorruptSnapshot)
	}
	return s, nil
}

// Restore rebuilds the session the snapshot describes: the embedded
// configuration is compiled (deterministic — the same config always yields
// bit-identical ring tables — and shared with any live context of the same
// configuration) and its keys are regenerated from it exactly as NewContext
// generated them, so restored sessions decrypt and evaluate pre-crash
// ciphertexts bit-identically. A configuration that is not the resolved form
// of itself, or does not compile, is a corrupt snapshot: every key would come
// from it. So is a legacy file whose stored secret key is not the
// regenerated one. Restore draws sk and pk only: each evaluation key is
// derived on the first op that reads it, as on a fresh context.
//
// Options may attach an observer or a shared evk cache. WithParallelism, the
// one option that alters the configuration, is rejected with
// ErrInvalidParameters unless it restates the embedded value.
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
			"(the keys are those of the persisted config): %w", ErrInvalidParameters)
	}
	if resolved, _, err := resolveConfig(cfg, nil); err != nil || !reflect.DeepEqual(resolved, cfg) {
		return nil, fmt.Errorf("fast: snapshot config %+v is not a resolved configuration: %w", cfg, ErrCorruptSnapshot)
	}
	lit := parametersLiteral(cfg)
	params, err := ckks.NewParameters(lit)
	if err != nil {
		return nil, fmt.Errorf("fast: snapshot config does not compile: %w: %w", err, ErrCorruptSnapshot)
	}
	ctx, err := buildContext(cfg, settings, lit, params, s.Meta.Restores)
	if err != nil {
		return nil, err
	}
	if s.legacyKeys != nil && !bytes.HasPrefix(s.legacyKeys, ctx.sk.AppendBinary(nil)) {
		return nil, fmt.Errorf("fast: legacy snapshot stores a secret key its config does not generate: %w", ErrCorruptSnapshot)
	}
	return ctx, nil
}

// ReadSessionSnapshot reads, verifies and restores a session snapshot in one
// step, returning the rebuilt context and the stored metadata. Callers that
// need to bump Meta.Restores before the keys are regenerated (every
// restoring daemon should) use DecodeSessionSnapshot + Restore instead.
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
