package ring

import (
	"math/rand"
	"testing"
)

// In-process A/B benchmarks for the vector kernels: each benchmark runs the
// same workload once per kernel path (go | avx2 | ifma) via SetKernelPath,
// which is the only comparison that survives the noise of shared hosts —
// cross-process runs of the same binary can drift several percent. The
// modulus is a 36-bit prime, so the ifma leg measures the 52-bit datapath and
// the avx2 leg the 64-bit one on identical data. A path the CPU lacks is
// skipped by name.
func benchPaths(b *testing.B, run func(m Modulus, tbl *NTTTable, n int, src []uint64)) {
	const logN, n = 12, 4096
	mod := FirstPrime(b, 36, logN)
	tbl, err := NewNTTTable(mod, logN)
	if err != nil {
		b.Fatal(err)
	}
	src := make([]uint64, 16*n) // 16 fully reduced rows at stride n
	rng := rand.New(rand.NewSource(1))
	for i := range src {
		src[i] = rng.Uint64() % mod.Q
	}
	for _, leg := range []struct {
		name string
		path Path
	}{{"go", PathGo}, {"avx2", PathAVX2}, {"ifma", PathAVX512IFMA}} {
		b.Run(leg.name, func(b *testing.B) {
			prev := SetKernelPath(leg.path)
			defer SetKernelPath(prev)
			if kernelPath != leg.path {
				b.Skipf("kernel path %v not available on this build/CPU", leg.path)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(mod, tbl, n, src)
			}
		})
	}
}

func BenchmarkABNTTForward(b *testing.B) {
	benchPaths(b, func(_ Modulus, tbl *NTTTable, n int, src []uint64) { tbl.Forward(src[:n]) })
}

func BenchmarkABNTTInverse(b *testing.B) {
	benchPaths(b, func(_ Modulus, tbl *NTTTable, n int, src []uint64) { tbl.Inverse(src[:n]) })
}

func BenchmarkABShoupMulVec(b *testing.B) {
	d := make([]uint64, 4096)
	benchPaths(b, func(m Modulus, _ *NTTTable, n int, src []uint64) {
		w := uint64(12345678901) % m.Q
		m.ShoupMulVec(d, src[:n], w, m.ShoupPrecomp(w))
	})
}

func BenchmarkABShoupMulSubVec(b *testing.B) {
	d := make([]uint64, 4096)
	benchPaths(b, func(m Modulus, _ *NTTTable, n int, src []uint64) {
		m.ShoupMulSubVec(d, src[:n], src[n:2*n], 12345, m.ShoupPrecomp(12345))
	})
}

func benchBConv(b *testing.B, l int, shoup bool) {
	d := make([]uint64, 4096)
	ws := make([]uint64, l)
	wsSho := make([]uint64, l)
	benchPaths(b, func(m Modulus, _ *NTTTable, n int, src []uint64) {
		if ws[0] == 0 {
			for i := range ws {
				ws[i] = uint64(111*(i+1)) % m.Q
				wsSho[i] = m.ShoupPrecomp(ws[i])
			}
		}
		if shoup {
			m.BConvAccumShoup(d, src, n, ws, wsSho, m.Q)
			return
		}
		m.BConvAccum(d, src, n, ws, m.Q)
	})
}

func BenchmarkABBConvAccum3(b *testing.B)      { benchBConv(b, 3, false) }
func BenchmarkABBConvAccum8(b *testing.B)      { benchBConv(b, 8, false) }
func BenchmarkABBConvAccumShoup3(b *testing.B) { benchBConv(b, 3, true) }

// BenchmarkABMulAccRows9 is one KeyMult output row: a 9-digit gadget inner
// product (the lib_bootstrap β at the top level).
func BenchmarkABMulAccRows9(b *testing.B) {
	d := make([]uint64, 4096)
	benchPaths(b, func(m Modulus, _ *NTTTable, n int, src []uint64) {
		var xs, ys [9][]uint64
		for j := range xs {
			xs[j], ys[j] = src[j*n:(j+1)*n], src[(15-j)*n:(16-j)*n]
		}
		m.MulAccRows(d, xs[:], ys[:])
	})
}

func BenchmarkABMulCoeffs(b *testing.B) {
	d := make([]uint64, 4096)
	benchPaths(b, func(m Modulus, _ *NTTTable, n int, src []uint64) {
		r := Ring{N: n, Moduli: []Modulus{m}}
		r.MulCoeffs(Poly{Coeffs: [][]uint64{src[:n]}}, Poly{Coeffs: [][]uint64{src[n : 2*n]}}, Poly{Coeffs: [][]uint64{d}})
	})
}

func BenchmarkABAdd(b *testing.B) {
	d := make([]uint64, 4096)
	benchPaths(b, func(m Modulus, _ *NTTTable, n int, src []uint64) { m.addVec(d, src[:n], src[n:2*n]) })
}
