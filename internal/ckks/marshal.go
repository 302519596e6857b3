package ckks

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"github.com/fastfhe/fast/internal/ring"
)

// Wire format: little-endian, each object prefixed with a one-byte tag and a
// version byte. Polynomials serialise as (limbs, degree, raw coefficients).
// Ciphertexts additionally carry level and scale; switching keys carry their
// method and group count. The format is stable within a major version of this
// library.

const (
	wireVersion byte = 1

	tagPoly       byte = 0x01
	tagCiphertext byte = 0x02
	tagSwitchKey  byte = 0x04 // 0x03 was the plaintext tag
	tagPublicKey  byte = 0x05
	tagSecretKey  byte = 0x06
	tagEvalKeys   byte = 0x07
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
// coefficients become wire bytes (ciphertexts, keys, snapshots).
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

func appendPoly(dst []byte, p ring.Poly) []byte {
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
// whatever follows in r.
func ReadCiphertext(r io.Reader, params *Parameters) (*Ciphertext, error) {
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
		return nil, fmt.Errorf("ckks: ciphertext poly shape %dx%d does not fit N=%d with %d limbs: %w",
			limbs, n, params.N(), params.MaxLevel()+1, ErrInvalidCiphertext)
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
// after it are not looked at. b is not retained.
func ReadCiphertextBytes(b []byte, params *Parameters) (*Ciphertext, error) {
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

// AppendBinary appends the public key's wire form to dst.
func (pk *PublicKey) AppendBinary(dst []byte) []byte {
	return appendPoly(appendPoly(append(dst, tagPublicKey, wireVersion), pk.B), pk.A)
}

// ParsePublicKey decodes a public key from the front of b and returns the
// bytes after it.
func ParsePublicKey(b []byte, params *Parameters) (*PublicKey, []byte, error) {
	if err := checkHeader(b, tagPublicKey); err != nil {
		return nil, nil, err
	}
	pb, b, err := parsePoly(b[2:])
	if err != nil {
		return nil, nil, err
	}
	pa, b, err := parsePoly(b)
	if err != nil {
		return nil, nil, err
	}
	if !keyShape(pb, pa, len(params.qChain), params.N()) {
		return nil, nil, fmt.Errorf("ckks: public key shape inconsistent with parameters")
	}
	return &PublicKey{B: pb, A: pa}, b, nil
}

// keyShape reports whether both halves of a key pair have the key ring's
// limbs and the ring degree: the key switch reads rows of each at that shape.
func keyShape(b, a ring.Poly, limbs, n int) bool {
	return b.Limbs() == limbs && a.Limbs() == limbs && b.N() == n && a.N() == n
}

// AppendBinary appends the secret key's wire form to dst. Only the signed
// ternary coefficients go on the wire (one byte each): the NTT-form
// embeddings over the key rings are deterministic functions of the signed
// vector and the parameter set, so ParseSecretKey reconstructs them
// bit-identically. This keeps the snapshot compact and means the secret's
// serialised form is independent of which key-switching backends the
// parameter set enables.
func (sk *SecretKey) AppendBinary(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(append(dst, tagSecretKey, wireVersion), uint32(len(sk.signed)))
	for _, v := range sk.signed {
		dst = append(dst, byte(int8(v)))
	}
	return dst
}

// ParseSecretKey decodes a secret key from the front of b, returns the bytes
// after it, and rebuilds its NTT-form embeddings over every key ring the
// parameter set enables (Q++P always, Q++T when KLSS is available).
func ParseSecretKey(b []byte, params *Parameters) (*SecretKey, []byte, error) {
	if err := checkHeader(b, tagSecretKey); err != nil {
		return nil, nil, err
	}
	hdr, b, err := cutBytes(b[2:], 4)
	if err != nil {
		return nil, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if int(n) != params.N() {
		return nil, nil, fmt.Errorf("ckks: secret key length %d does not match N=%d", n, params.N())
	}
	coeffs, b, err := cutBytes(b, int(n))
	if err != nil {
		return nil, nil, err
	}
	sk := &SecretKey{signed: make([]int64, n)}
	for i, c := range coeffs {
		v := int8(c)
		if v < -1 || v > 1 {
			return nil, nil, fmt.Errorf("ckks: secret coefficient %d out of ternary range", v)
		}
		sk.signed[i] = int64(v)
	}
	sk.QP = params.ringQP.NewPoly()
	setSignedInto(params.ringQP, sk.signed, sk.QP)
	params.ringQP.NTT(sk.QP)
	if params.ringQT != nil {
		sk.QT = params.ringQT.NewPoly()
		setSignedInto(params.ringQT, sk.signed, sk.QT)
		params.ringQT.NTT(sk.QT)
	}
	return sk, b, nil
}

// cutBytes splits the first n bytes off b.
func cutBytes(b []byte, n int) (head, rest []byte, err error) {
	if len(b) < n {
		return nil, nil, io.ErrUnexpectedEOF
	}
	return b[:n], b[n:], nil
}

// AppendBinary appends the full evaluation-key set to dst in a canonical
// order (methods ascending, Galois elements ascending) so identical key sets
// always produce identical bytes — the property the snapshot checksum relies
// on.
func (s *EvaluationKeySet) AppendBinary(dst []byte) []byte {
	methods := make([]KeySwitchMethod, 0, len(s.Relin))
	for m := range s.Relin {
		methods = append(methods, m)
	}
	slices.Sort(methods)
	dst = binary.LittleEndian.AppendUint32(append(dst, tagEvalKeys, wireVersion), uint32(len(methods)))
	for _, m := range methods {
		galEls := make([]uint64, 0, len(s.Galois[m]))
		for el := range s.Galois[m] {
			galEls = append(galEls, el)
		}
		slices.Sort(galEls)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(m))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(galEls)))
		dst = s.Relin[m].AppendBinary(dst)
		for _, el := range galEls {
			dst = s.Galois[m][el].AppendBinary(binary.LittleEndian.AppendUint64(dst, el))
		}
	}
	return dst
}

// ParseEvaluationKeySet decodes an evaluation-key set from the front of b,
// validating every switching key's shape against the parameter set, and
// returns the bytes after it.
func ParseEvaluationKeySet(b []byte, params *Parameters) (*EvaluationKeySet, []byte, error) {
	if err := checkHeader(b, tagEvalKeys); err != nil {
		return nil, nil, err
	}
	hdr, b, err := cutBytes(b[2:], 4)
	if err != nil {
		return nil, nil, err
	}
	nMethods := binary.LittleEndian.Uint32(hdr)
	if nMethods > 2 {
		return nil, nil, fmt.Errorf("ckks: implausible method count %d", nMethods)
	}
	set := NewEvaluationKeySet()
	for i := uint32(0); i < nMethods; i++ {
		var meta []byte
		if meta, b, err = cutBytes(b, 8); err != nil {
			return nil, nil, err
		}
		method := KeySwitchMethod(binary.LittleEndian.Uint32(meta))
		if method != Hybrid && method != KLSS {
			return nil, nil, fmt.Errorf("ckks: unknown key-switch method %d in key set", uint32(method))
		}
		var rlk *SwitchingKey
		if rlk, b, err = ParseSwitchingKey(b, params); err != nil {
			return nil, nil, err
		}
		if rlk.Method != method {
			return nil, nil, fmt.Errorf("ckks: relin key method %v under %v section", rlk.Method, method)
		}
		set.Relin[method] = rlk
		nGal := binary.LittleEndian.Uint32(meta[4:])
		if nGal > 1<<16 {
			return nil, nil, fmt.Errorf("ckks: implausible galois key count %d", nGal)
		}
		for j := uint32(0); j < nGal; j++ {
			var el []byte
			if el, b, err = cutBytes(b, 8); err != nil {
				return nil, nil, err
			}
			var gk *SwitchingKey
			if gk, b, err = ParseSwitchingKey(b, params); err != nil {
				return nil, nil, err
			}
			if gk.Method != method {
				return nil, nil, fmt.Errorf("ckks: galois key method %v under %v section", gk.Method, method)
			}
			set.addGalois(method, binary.LittleEndian.Uint64(el), gk)
		}
	}
	return set, b, nil
}

// AppendBinary appends the switching key's wire form (all gadget pairs) to
// dst.
func (swk *SwitchingKey) AppendBinary(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(append(dst, tagSwitchKey, wireVersion), uint32(swk.Method))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(swk.B)))
	for j := range swk.B {
		dst = appendPoly(appendPoly(dst, swk.B[j]), swk.A[j])
	}
	return dst
}

// ParseSwitchingKey decodes a switching key from the front of b and returns
// the bytes after it.
func ParseSwitchingKey(b []byte, params *Parameters) (*SwitchingKey, []byte, error) {
	if err := checkHeader(b, tagSwitchKey); err != nil {
		return nil, nil, err
	}
	meta, b, err := cutBytes(b[2:], 8)
	if err != nil {
		return nil, nil, err
	}
	method := KeySwitchMethod(binary.LittleEndian.Uint32(meta))
	kr, _, err := params.keyRing(method)
	if err != nil {
		return nil, nil, err
	}
	groups := binary.LittleEndian.Uint32(meta[4:])
	if groups < 1 || groups > 64 {
		return nil, nil, fmt.Errorf("ckks: implausible group count %d", groups)
	}
	swk := &SwitchingKey{Method: method, B: make([]ring.Poly, groups), A: make([]ring.Poly, groups)}
	for j := range swk.B {
		if swk.B[j], b, err = parsePoly(b); err != nil {
			return nil, nil, err
		}
		if swk.A[j], b, err = parsePoly(b); err != nil {
			return nil, nil, err
		}
		if !keyShape(swk.B[j], swk.A[j], len(kr.Moduli), params.N()) {
			return nil, nil, fmt.Errorf("ckks: switching key group %d shape inconsistent", j)
		}
	}
	return swk, b, nil
}
