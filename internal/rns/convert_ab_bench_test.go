package rns

import (
	"math/rand"
	"testing"

	"github.com/fastfhe/fast/internal/ring"
)

// benchConvertAB measures the full approximate base conversion — the BConv
// kernel the accelerator's systolic array implements — with the vector
// kernels toggled in-process (see ring.SetKernelASM): the only A/B that
// isolates kernel speedup from host noise. The shapes: a 3-limb 36-bit ModUp
// group fanning to 12 target limbs, and a 2-limb 60-bit special chain fanning
// to 6.
func benchConvertAB(b *testing.B, asm bool, fromBits, fromL, toBits, toL int) {
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
	var from, to []ring.Modulus
	for _, q := range fp {
		m, err := ring.NewModulus(q)
		if err != nil {
			b.Fatal(err)
		}
		from = append(from, m)
	}
	for _, q := range tp[fromL:] {
		m, err := ring.NewModulus(q)
		if err != nil {
			b.Fatal(err)
		}
		to = append(to, m)
	}
	ext, err := NewExtender(from, to)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	src := rows(fromL, n)
	for i := range src {
		for k := range src[i] {
			src[i][k] = rng.Uint64() % from[i].Q
		}
	}
	dst := rows(toL, n)
	prev := ring.SetKernelASM(asm)
	defer ring.SetKernelASM(prev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ext.Convert(src, dst)
	}
}

func BenchmarkABConvert36_Go(b *testing.B)  { benchConvertAB(b, false, 36, 3, 36, 12) }
func BenchmarkABConvert36_ASM(b *testing.B) { benchConvertAB(b, true, 36, 3, 36, 12) }
func BenchmarkABConvert60_Go(b *testing.B)  { benchConvertAB(b, false, 60, 2, 60, 6) }
func BenchmarkABConvert60_ASM(b *testing.B) { benchConvertAB(b, true, 60, 2, 60, 6) }
