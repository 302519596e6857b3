package ckks

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"github.com/fastfhe/fast/internal/ring"
)

// Wire format: little-endian, each object prefixed with a one-byte tag and a
// version byte. Polynomials serialise as (limbs, degree, raw coefficients);
// ciphertexts additionally carry level and scale. Keys have no wire form:
// they are regenerated from the parameter seed. The format is stable within a
// major version of this library.

const (
	wireVersion byte = 1

	tagPoly       byte = 0x01
	tagCiphertext byte = 0x02 // 0x03 was the plaintext tag; 0x04 to 0x07 the keys
)

// checkHeader validates the tag and version bytes every object starts with.
func checkHeader(hdr []byte, wantTag byte) error {
	if len(hdr) < 2 {
		return fmt.Errorf("ckks: reading header: %w", io.ErrUnexpectedEOF)
	}
	if hdr[0] != wantTag {
		return fmt.Errorf("ckks: wrong object tag 0x%02x, want 0x%02x", hdr[0], wantTag)
	}
	if hdr[1] != wireVersion {
		return fmt.Errorf("ckks: unsupported wire version %d", hdr[1])
	}
	return nil
}

// Sizes of the fixed parts of the format.
const (
	polyHeaderLen = 2 + 4 + 4 // tag, version, limbs, degree
	levelScaleLen = 2 + 4 + 8 // tag, version, level, scale
)

// appendCoeffs appends src as little-endian 64-bit words — the one place
// coefficients become wire bytes.
func appendCoeffs(dst []byte, src []uint64) []byte {
	n := len(dst)
	dst = slices.Grow(dst, 8*len(src))[:n+8*len(src)]
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[n+8*i:], v)
	}
	return dst
}

// decodeCoeffs is appendCoeffs' inverse: len(dst) words out of src.
func decodeCoeffs(dst []uint64, src []byte) {
	src = src[:8*len(dst)]
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(src[8*i:])
	}
}

// polyShape validates a poly header and returns its shape.
func polyShape(hdr []byte) (limbs, n int, err error) {
	if err := checkHeader(hdr, tagPoly); err != nil {
		return 0, 0, err
	}
	limbs, n = int(binary.LittleEndian.Uint32(hdr[2:])), int(binary.LittleEndian.Uint32(hdr[6:]))
	if limbs < 1 || limbs > 128 || n < 1 || n > 1<<20 {
		return 0, 0, fmt.Errorf("ckks: implausible poly shape %dx%d", limbs, n)
	}
	return limbs, n, nil
}

// polyRows returns p's coefficients in wire order: the arena backing is the
// limb rows concatenated, so a contiguous poly is one run and emits bytes
// identical to the per-row loop a foreign (row-built) poly takes.
func polyRows(p ring.Poly) [][]uint64 {
	if len(p.Backing) == p.Limbs()*p.N() {
		return [][]uint64{p.Backing}
	}
	return p.Coeffs
}

// appendPoly appends p's wire form. A packed poly (an evaluation key's) is
// written as the residues it holds, the bytes of the Poly it was packed from.
func appendPoly[P ring.Poly | ring.PackedPoly](dst []byte, poly P) []byte {
	p, ok := any(poly).(ring.Poly)
	if !ok {
		p = any(poly).(ring.PackedPoly).Unpack()
	}
	dst = binary.LittleEndian.AppendUint32(append(dst, tagPoly, wireVersion), uint32(p.Limbs()))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(p.N()))
	for _, row := range polyRows(p) {
		dst = appendCoeffs(dst, row)
	}
	return dst
}

// parsePoly decodes a poly straight from b (nothing is allocated before the
// length is known to be there) and returns what follows it.
func parsePoly(b []byte) (ring.Poly, []byte, error) {
	if len(b) < polyHeaderLen {
		return ring.Poly{}, nil, fmt.Errorf("ckks: reading header: %w", io.ErrUnexpectedEOF)
	}
	limbs, n, err := polyShape(b)
	if err != nil {
		return ring.Poly{}, nil, err
	}
	b = b[polyHeaderLen:]
	if len(b) < 8*limbs*n {
		return ring.Poly{}, nil, io.ErrUnexpectedEOF
	}
	p := ring.NewPoly(n, limbs)
	decodeCoeffs(p.Backing, b)
	return p, b[8*limbs*n:], nil
}

// appendLevelScale appends a ciphertext's head: tag, version, level and scale.
func appendLevelScale(dst []byte, tag byte, level int, scale float64) []byte {
	dst = append(dst, tag, wireVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(level)))
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(scale))
}

func parseLevelScale(b []byte, wantTag byte) (level int, scale float64, err error) {
	if err := checkHeader(b, wantTag); err != nil {
		return 0, 0, err
	}
	if len(b) < levelScaleLen {
		return 0, 0, io.ErrUnexpectedEOF
	}
	return int(int32(binary.LittleEndian.Uint32(b[2:]))), math.Float64frombits(binary.LittleEndian.Uint64(b[6:])), nil
}

// WireSize returns the length of the ciphertext's wire form.
func (ct *Ciphertext) WireSize() int {
	return levelScaleLen + 2*polyHeaderLen + 8*(ct.C0.Limbs()*ct.C0.N()+ct.C1.Limbs()*ct.C1.N())
}

// AppendBinary appends the ciphertext's wire form to dst — the bytes
// Serialize writes, without a writer in between.
func (ct *Ciphertext) AppendBinary(dst []byte) []byte {
	dst = appendLevelScale(dst, tagCiphertext, ct.Level, ct.Scale)
	return appendPoly(appendPoly(dst, ct.C0), ct.C1)
}

// Serialize writes the ciphertext's wire form to w in one Write.
func (ct *Ciphertext) Serialize(w io.Writer) error {
	_, err := w.Write(ct.AppendBinary(make([]byte, 0, ct.WireSize())))
	return err
}

// ReadCiphertext reads one ciphertext from r and validates it against the
// parameter set. It reads the ciphertext's head (level, scale and the first
// poly's shape) and refuses a shape the parameters cannot hold before
// allocating for the coefficients; then it reads exactly the rest of the
// ciphertext — both components of a valid one share that shape — and leaves
// whatever follows in r. Every error wraps ErrInvalidCiphertext.
func ReadCiphertext(r io.Reader, params *Parameters) (_ *Ciphertext, err error) {
	defer invalidCiphertext(&err)
	var head [levelScaleLen + polyHeaderLen]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("ckks: reading ciphertext head: %w", err)
	}
	if err := checkHeader(head[:], tagCiphertext); err != nil {
		return nil, err
	}
	limbs, n, err := polyShape(head[levelScaleLen:])
	if err != nil {
		return nil, err
	}
	if n != params.N() || limbs > params.MaxLevel()+1 {
		return nil, fmt.Errorf("ckks: ciphertext poly shape %dx%d does not fit N=%d with %d limbs",
			limbs, n, params.N(), params.MaxLevel()+1)
	}
	b := make([]byte, len(head)+polyHeaderLen+16*limbs*n)
	copy(b, head[:])
	if _, err := io.ReadFull(r, b[len(head):]); err != nil {
		return nil, fmt.Errorf("ckks: reading ciphertext: %w", err)
	}
	return ReadCiphertextBytes(b, params)
}

// ReadCiphertextBytes decodes a ciphertext from wire bytes and validates it
// against the parameter set. It stops at the end of the ciphertext: bytes
// after it are not looked at. b is not retained. Every error wraps
// ErrInvalidCiphertext.
func ReadCiphertextBytes(b []byte, params *Parameters) (_ *Ciphertext, err error) {
	defer invalidCiphertext(&err)
	level, scale, err := parseLevelScale(b, tagCiphertext)
	if err != nil {
		return nil, err
	}
	c0, b, err := parsePoly(b[levelScaleLen:])
	if err != nil {
		return nil, err
	}
	c1, _, err := parsePoly(b)
	if err != nil {
		return nil, err
	}
	ct := &Ciphertext{C0: c0, C1: c1, Level: level, Scale: scale}
	if err := ct.validate(params); err != nil {
		return nil, err
	}
	return ct, nil
}

// invalidCiphertext types a ciphertext decode error — a wrong tag or
// version, a short read, a malformed poly — as ErrInvalidCiphertext, once.
func invalidCiphertext(err *error) {
	if *err != nil && !errors.Is(*err, ErrInvalidCiphertext) {
		*err = fmt.Errorf("%w: %w", *err, ErrInvalidCiphertext)
	}
}

// Validate checks the ciphertext's structural invariants against the
// parameter set: level within the chain, limb counts consistent with the
// level, ring degree, and a finite positive scale. Violations wrap
// ErrInvalidCiphertext. It is cheap (no coefficient scan) — the fast package
// runs it at every public API boundary.
func (ct *Ciphertext) Validate(params *Parameters) error {
	if ct == nil || ct.C0.Coeffs == nil || ct.C1.Coeffs == nil {
		return fmt.Errorf("ckks: nil ciphertext: %w", ErrInvalidCiphertext)
	}
	if ct.Level < 0 || ct.Level > params.MaxLevel() {
		return fmt.Errorf("ckks: ciphertext level %d out of range [0,%d]: %w", ct.Level, params.MaxLevel(), ErrInvalidCiphertext)
	}
	if ct.C0.Limbs() != ct.Level+1 || ct.C1.Limbs() != ct.Level+1 {
		return fmt.Errorf("ckks: ciphertext limbs (%d,%d) inconsistent with level %d: %w",
			ct.C0.Limbs(), ct.C1.Limbs(), ct.Level, ErrInvalidCiphertext)
	}
	if ct.C0.N() != params.N() || ct.C1.N() != params.N() {
		return fmt.Errorf("ckks: ciphertext degree %d does not match N=%d: %w", ct.C0.N(), params.N(), ErrInvalidCiphertext)
	}
	if ct.Scale <= 0 || math.IsNaN(ct.Scale) || math.IsInf(ct.Scale, 0) {
		return fmt.Errorf("ckks: invalid scale %g: %w", ct.Scale, ErrInvalidCiphertext)
	}
	return nil
}

// validate is the deserialisation-strength check: the structural invariants
// of Validate plus a full coefficient-range scan (every residue must sit
// below its limb modulus), guarding against hostile or corrupted wire data.
func (ct *Ciphertext) validate(params *Parameters) error {
	if err := ct.Validate(params); err != nil {
		return err
	}
	for i := 0; i <= ct.Level; i++ {
		q := params.qChain[i]
		for _, row := range [][]uint64{ct.C0.Coeffs[i], ct.C1.Coeffs[i]} {
			for _, v := range row {
				if v >= q {
					return fmt.Errorf("ckks: coefficient %d out of range for limb %d (q=%d): %w", v, i, q, ErrInvalidCiphertext)
				}
			}
		}
	}
	return nil
}
