// Package kerneltest lets the tests of packages built on internal/ring run
// under every kernel path (go, avx2, avx512ifma) the build and CPU offer, so
// bit-identity across the datapaths is checked where it is promised — at the
// rns, ckks and fast boundaries — and not only inside ring. Import it from
// tests only.
package kerneltest

import (
	"testing"

	"github.com/fastfhe/fast/internal/ring"
)

// Paths lists every kernel path, lowest first.
var Paths = []ring.Path{ring.PathGo, ring.PathAVX2, ring.PathAVX512IFMA}

// EachPath runs f as one subtest per kernel path, named after the path, with
// that path selected for the subtest's duration. A path the build or CPU
// lacks is skipped by name, so a test log shows which legs ran. The selection
// is process-wide and unsynchronized (ring.SetKernelPath): f must not call
// t.Parallel.
func EachPath(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, p := range Paths {
		t.Run(p.String(), func(t *testing.T) {
			prev := ring.SetKernelPath(p)
			defer ring.SetKernelPath(prev)
			if got := ring.KernelPath(); got != p.String() {
				t.Skipf("kernel path %v not available on this build/CPU (running %s)", p, got)
			}
			f(t)
		})
	}
}
