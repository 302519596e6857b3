package main

import (
	"encoding/base64"
	"slices"

	"github.com/fastfhe/fast/internal/ring"
)

// The ciphertext codec: standard base64 with padding, exactly
// encoding/base64.StdEncoding — the same count, bytes and error text for
// every input (FuzzBase64 holds it to that on every kernel path). On the
// avx512ifma kernel path the whole 48-byte / 64-character blocks run on the
// byte lanes (bytelanes_amd64.s); the tail, and on decode everything from
// the first block holding a byte outside the alphabet ('=', '\r', '\n',
// junk), goes to encoding/base64 with the consumed offset added. Other
// paths and builds use encoding/base64 alone.

// byteLanes reports whether the byte-lane kernels run: on the avx512ifma
// kernel path, read at each call so ring.SetKernelPath reaches both legs.
func byteLanes() bool { return ring.KernelPath() == ring.PathAVX512IFMA.String() }

// b64AppendEncode is base64.StdEncoding.AppendEncode.
func b64AppendEncode(dst, src []byte) []byte {
	n := base64.StdEncoding.EncodedLen(len(src))
	dst = slices.Grow(dst, n)
	out := dst[len(dst):][:n]
	var blocks int
	if byteLanes() {
		blocks = encodeBlocks(out, src)
	}
	base64.StdEncoding.Encode(out[64*blocks:], src[48*blocks:])
	return dst[:len(dst)+n]
}

// b64Decode is base64.StdEncoding.Decode. A clean block ends on a quantum
// boundary, so decoding the rest alone is what the standard decoder does
// with it in place, but for the offset an error names.
func b64Decode(dst, src []byte) (int, error) {
	var blocks int
	if byteLanes() {
		blocks = decodeBlocks(dst, src)
	}
	n, err := base64.StdEncoding.Decode(dst[48*blocks:], src[64*blocks:])
	if off, ok := err.(base64.CorruptInputError); ok {
		err = off + base64.CorruptInputError(64*blocks)
	}
	return 48*blocks + n, err
}
