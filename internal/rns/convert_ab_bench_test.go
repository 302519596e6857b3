package rns

import (
	"math/rand"
	"testing"

	"github.com/fastfhe/fast/internal/ring"
)

// benchConvertAB measures the full approximate base conversion — the BConv
// kernel the accelerator's systolic array implements — once per kernel path
// in-process (see ring.SetKernelPath): the only A/B that isolates kernel
// speedup from host noise. The shapes: a 3-limb 36-bit ModUp group fanning to
// 12 target limbs (the 52-bit datapath on an IFMA host), and a 2-limb 60-bit
// special chain fanning to 6 (the 64-bit datapath on every host: its ifma
// leg must match its avx2 leg).
func benchConvertAB(b *testing.B, fromBits, fromL, toBits, toL int) {
	const logN, n = 12, 4096
	fp, err := ring.GenerateNTTPrimes(fromBits, logN, fromL)
	if err != nil {
		b.Fatal(err)
	}
	// Generate the target chain past the source chain so the bases stay
	// disjoint even at matching bit widths.
	tp, err := ring.GenerateNTTPrimes(toBits, logN, fromL+toL)
	if err != nil {
		b.Fatal(err)
	}
	ext, err := NewExtender(mods(b, fp), mods(b, tp[fromL:]))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	src := rows(fromL, n)
	for i := range src {
		for k := range src[i] {
			src[i][k] = rng.Uint64() % ext.From[i].Q
		}
	}
	dst := rows(toL, n)
	for _, leg := range []struct {
		name string
		path ring.Path
	}{{"go", ring.PathGo}, {"avx2", ring.PathAVX2}, {"ifma", ring.PathAVX512IFMA}} {
		b.Run(leg.name, func(b *testing.B) {
			prev := ring.SetKernelPath(leg.path)
			defer ring.SetKernelPath(prev)
			if ring.KernelPath() != leg.path.String() {
				b.Skipf("kernel path %v not available on this build/CPU", leg.path)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ext.Convert(src, dst)
			}
		})
	}
}

func mods(b *testing.B, primes []uint64) []ring.Modulus {
	out := make([]ring.Modulus, len(primes))
	for i, q := range primes {
		m, err := ring.NewModulus(q)
		if err != nil {
			b.Fatal(err)
		}
		out[i] = m
	}
	return out
}

func BenchmarkABConvert36(b *testing.B) { benchConvertAB(b, 36, 3, 36, 12) }
func BenchmarkABConvert60(b *testing.B) { benchConvertAB(b, 60, 2, 60, 6) }
