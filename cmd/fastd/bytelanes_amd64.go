//go:build amd64 && !purego

package main

// The envelope's AVX-512 byte-lane kernels (bytelanes_amd64.s). Each does
// whole blocks only and returns how far it got; callers reach them only
// through byteLanes.

// encodeBlocks base64-encodes min(len(src)/48, len(dst)/64) blocks of 48
// bytes into 64 characters each and returns the block count.
//
//go:noescape
func encodeBlocks(dst, src []byte) int

// decodeBlocks decodes 64-character blocks of src into 48 bytes each, up to
// min(len(src)/64, len(dst)/48) of them, and stops before the first block
// holding a byte outside the standard alphabet ('=', '\r' and '\n'
// included). It returns the blocks decoded; nothing past them is written.
//
//go:noescape
func decodeBlocks(dst, src []byte) int

// plainBlocks returns the length of b's longest prefix of whole 64-byte
// blocks that plainASCII accepts.
//
//go:noescape
func plainBlocks(b []byte) int
