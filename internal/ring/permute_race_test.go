//go:build race

package ring

import (
	"strings"
	"testing"
)

// TestPermuteChecksRefuseNonPermutation: under the race build a table that
// is not a permutation of [0, n) panics in PermuteRow and PermuteAddRow on
// every kernel path, the avx512ifma gathers included, before any read.
func TestPermuteChecksRefuseNonPermutation(t *testing.T) {
	const n = 64
	m := FirstPrime(t, 50, 6)
	dst, src := make([]uint64, n), make([]uint64, n)
	ident := make([]int, n)
	for j := range ident {
		ident[j] = j
	}
	outside := append([]int(nil), ident...)
	outside[5] = 1 << 20
	repeated := append([]int(nil), ident...)
	repeated[5] = 4
	for _, p := range []Path{PathGo, PathAVX2, PathAVX512IFMA} {
		prev := SetKernelPath(p)
		for _, bad := range []struct {
			name  string
			index []int
		}{{"outside", outside}, {"repeated", repeated}} {
			for _, op := range []struct {
				name string
				f    func()
			}{
				{"PermuteRow", func() { PermuteRow(dst, src, bad.index) }},
				{"PermuteAddRow", func() { m.PermuteAddRow(dst, src, bad.index) }},
			} {
				func() {
					defer func() {
						r := recover()
						if s, ok := r.(string); !ok || !strings.Contains(s, "not a permutation") {
							t.Errorf("%v %s, %s table: recovered %v, want the permutation check's panic", kernelPath, op.name, bad.name, r)
						}
					}()
					op.f()
				}()
			}
		}
		PermuteRow(dst, src, ident)
		m.PermuteAddRow(dst, src, ident)
		SetKernelPath(prev)
	}
}
