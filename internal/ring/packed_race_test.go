//go:build race

package ring

import (
	"strings"
	"testing"
)

// TestPackedChecksRefuseBadRows: under the race build MulAccPackedRows
// panics on every kernel path, before any widening load, when a packed row
// lacks the padding the kernels read past its last residue, when the width
// is narrower than the modulus' residues, or when it is no packed width at
// all (58 bits: a residue at bit offset 7 would straddle the 8-byte load).
func TestPackedChecksRefuseBadRows(t *testing.T) {
	const n = 64
	m := FirstPrime(t, 36, 6)
	b := m.PackedBits()
	src := make([]uint64, n)
	for k := range src {
		src[k] = m.Q - 1
	}
	pack := func(b, l int) []byte {
		row := make([]byte, max(l, PackedRowLen(n, b)))
		PackRow(row, src, b)
		return row[:l]
	}
	dst, xs := make([]uint64, n), [][]uint64{src, src}
	good := pack(b, PackedRowLen(n, b))
	for _, p := range []Path{PathGo, PathAVX2, PathAVX512IFMA} {
		prev := SetKernelPath(p)
		for _, bad := range []struct {
			name, panic string
			row         []byte
			b           int
		}{
			{"unpadded", "over-read padding", pack(b, (n*b+7)/8), b},
			{"padding one byte short", "over-read padding", pack(b, PackedRowLen(n, b)-1), b},
			{"narrower than the modulus", "not a packed width", pack(b-1, PackedRowLen(n, b-1)), b - 1},
			{"no packed width", "not a packed width", make([]byte, PackedRowLen(n, 64)), 58},
		} {
			func() {
				defer func() {
					r := recover()
					if s, ok := r.(string); !ok || !strings.Contains(s, bad.panic) {
						t.Errorf("%v, %s row: recovered %v, want the packed-row check's panic", kernelPath, bad.name, r)
					}
				}()
				m.MulAccPackedRows(dst, xs, [][]byte{good, bad.row}, bad.b)
			}()
		}
		m.MulAccPackedRows(dst, xs, [][]byte{good, good}, b)
		SetKernelPath(prev)
	}
}
