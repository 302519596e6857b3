//go:build !amd64 || purego

package main

// No byte-lane kernels in this build: the kernel path is never avx512ifma,
// so byteLanes is false and these are never called. Each reports no blocks
// done, which is also correct.

func encodeBlocks(dst, src []byte) int { return 0 }
func decodeBlocks(dst, src []byte) int { return 0 }
func plainBlocks(b []byte) int         { return 0 }
