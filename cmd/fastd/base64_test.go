package main

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/fastfhe/fast/internal/ring"
	"github.com/fastfhe/fast/internal/ring/kerneltest"
)

// exact returns a copy of b whose capacity equals its length: a kernel
// reading past len(b) would read memory the slice does not own.
func exact(b []byte) []byte {
	c := make([]byte, len(b))
	copy(c, b)
	return c
}

// checkBase64 holds the codec to encoding/base64.StdEncoding on src, its
// encoding, and its encoding with byte pos set to c: equal count, bytes and
// error text (the offset included), into a destination exactly DecodedLen
// long, from sources whose capacity equals their length.
func checkBase64(t *testing.T, src []byte, pos uint, c byte) {
	t.Helper()
	prefix := []byte("prefix")
	want := base64.StdEncoding.AppendEncode(bytes.Clone(prefix), src)
	if got := b64AppendEncode(bytes.Clone(prefix), exact(src)); !bytes.Equal(got, want) {
		t.Fatalf("encode of %d bytes:\n got %q\nwant %q", len(src), got, want)
	}
	text := exact(want[len(prefix):])
	corrupt := exact(text)
	if len(corrupt) > 0 {
		corrupt[pos%uint(len(corrupt))] = c
	}
	for _, in := range [][]byte{exact(src), text, corrupt} {
		wantDst := make([]byte, base64.StdEncoding.DecodedLen(len(in)))
		wantN, wantErr := base64.StdEncoding.Decode(wantDst, in)
		gotDst := make([]byte, len(wantDst))
		gotN, gotErr := b64Decode(gotDst, in)
		if gotN != wantN || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !bytes.Equal(gotDst[:gotN], wantDst[:wantN]) {
			t.Fatalf("decode of %q:\n got %d, %v, %q\nwant %d, %v, %q", in, gotN, gotErr, gotDst[:gotN], wantN, wantErr, wantDst[:wantN])
		}
	}
}

// FuzzBase64: the codec equals encoding/base64.StdEncoding on every kernel
// path, for encode and decode. The seeds cross the 48-byte and 64-character
// block edges and put '\r', '\n', '=', non-ASCII bytes and junk inside and
// after clean blocks.
func FuzzBase64(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	junk := []byte("=\r\n\x00\x80\xff-_ .\"\\")
	for n := 0; n <= 400; n++ {
		src := make([]byte, n)
		rng.Read(src)
		f.Add(src, uint(rng.Intn(4*n/3+4)), junk[n%len(junk)])
	}
	long := strings.Repeat("QUJD", 64)
	for _, s := range []string{
		long + "\r\n" + long, long[:63] + "\n" + long, long + "=", long[:254] + "==", long[:254] + "=" + long[:64],
		long[:64] + "====", long[:128] + "AA==AAAA", long[:64] + "A===", long[:60] + "é" + long, "\xff" + long,
	} {
		f.Add([]byte(s), uint(0), byte('A'))
	}
	f.Fuzz(func(t *testing.T, src []byte, pos uint, c byte) {
		kerneltest.EachPath(t, func(t *testing.T) { checkBase64(t, src, pos, c) })
	})
}

// TestPlainASCII pins plainASCII, on every kernel path, against the byte
// loop it stands for, with every byte value at every position of every
// length up to 150: each 8-byte word and tail of the Go loop, and each
// 64-byte block of the byte-lane kernel followed by each tail length.
func TestPlainASCII(t *testing.T) {
	kerneltest.EachPath(t, func(t *testing.T) {
		b := bytes.Repeat([]byte{'A'}, 150)
		for n := 0; n <= len(b); n++ {
			for pos := 0; pos < max(n, 1); pos++ {
				for c := 0; c < 256; c++ {
					if n > 0 {
						b[pos] = byte(c)
					}
					want := n == 0 || !(c < 0x20 || c >= 0x80 || c == '\\')
					if got := plainASCII(b[:n]); got != want {
						t.Fatalf("plainASCII(%q) = %v, want %v", b[:n], got, want)
					}
				}
				b[pos] = 'A'
			}
		}
	})
}

// BenchmarkBase64 times the codec on one log_n 11, 5-level ciphertext's wire
// bytes (2 polys x 6 limbs x 2048 x 8 B + headers, ≈ 192 KiB) on each
// kernel path: the encode of an eval's reply and the decode of its input.
func BenchmarkBase64(b *testing.B) {
	wire := wireCiphertext(1<<11, 5, 1<<40)
	text := base64.StdEncoding.AppendEncode(nil, wire)
	dst := make([]byte, 0, len(text))
	for _, p := range kerneltest.Paths {
		prev := ring.SetKernelPath(p)
		if ring.KernelPath() == p.String() {
			b.Run("encode/"+p.String(), func(b *testing.B) {
				b.SetBytes(int64(len(wire)))
				for i := 0; i < b.N; i++ {
					dst = b64AppendEncode(dst[:0], wire)
				}
			})
			b.Run("decode/"+p.String(), func(b *testing.B) {
				b.SetBytes(int64(len(wire)))
				for i := 0; i < b.N; i++ {
					if _, err := b64Decode(dst[:cap(dst)], text); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		ring.SetKernelPath(prev)
	}
}
