package rns

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/fastfhe/fast/internal/ring"
)

// benchModuli builds a prime chain for benchmarking.
func benchModuli(b *testing.B, bitSize, logN, count int) []ring.Modulus {
	b.Helper()
	ps, err := ring.GenerateNTTPrimes(bitSize, logN, count)
	if err != nil {
		b.Fatalf("GenerateNTTPrimes: %v", err)
	}
	ms := make([]ring.Modulus, len(ps))
	for i, p := range ps {
		ms[i], err = ring.NewModulus(p)
		if err != nil {
			b.Fatalf("NewModulus: %v", err)
		}
	}
	return ms
}

func benchRows(ms []ring.Modulus, n int, seed int64) [][]uint64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]uint64, len(ms))
	for i, m := range ms {
		out[i] = make([]uint64, n)
		for k := range out[i] {
			out[i][k] = rng.Uint64() % m.Q
		}
	}
	return out
}

// BenchmarkConvert measures the BConv kernel (the paper's BConvU systolic
// matrix product) across the shapes the key-switch dataflow actually runs:
// ModUp extends an α-limb group to the complement basis; ModDown converts the
// short special chain back onto Q.
func BenchmarkConvert(b *testing.B) {
	const logN = 12
	n := 1 << logN
	cases := []struct {
		name              string
		fromBits, fromCnt int
		toBits, toCnt     int
	}{
		{"modup/3x36to12x36", 36, 3, 36, 12},
		{"modup/2x60to6x60", 60, 2, 60, 6},
		{"moddown/2x60to12x36", 60, 2, 36, 12},
		{"moddown/4x36to8x36", 36, 4, 36, 8},
	}
	for _, tc := range cases {
		from := benchModuli(b, tc.fromBits, logN, tc.fromCnt)
		var to []ring.Modulus
		if tc.fromBits == tc.toBits {
			// Disjoint chains of the same width: take extras from one call.
			all := benchModuli(b, tc.toBits, logN, tc.fromCnt+tc.toCnt)
			from = all[:tc.fromCnt]
			to = all[tc.fromCnt:]
		} else {
			to = benchModuli(b, tc.toBits, logN, tc.toCnt)
		}
		ext, err := NewExtender(from, to)
		if err != nil {
			b.Fatalf("NewExtender: %v", err)
		}
		src := benchRows(from, n, 7)
		dst := benchRows(to, n, 8)
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(int64(n) * 8 * int64(tc.fromCnt+tc.toCnt))
			for i := 0; i < b.N; i++ {
				ext.Convert(src, dst)
			}
		})
	}
}

// BenchmarkModDownKernel measures the full ModDown (inner BConv plus the
// subtract-and-scale pass over the Q limbs).
func BenchmarkModDownKernel(b *testing.B) {
	const logN = 12
	n := 1 << logN
	q := benchModuli(b, 36, logN, 12)
	p := benchModuli(b, 60, logN, 2)
	d, err := NewModDowner(q, p)
	if err != nil {
		b.Fatalf("NewModDowner: %v", err)
	}
	xQ := benchRows(q, n, 9)
	xP := benchRows(p, n, 10)
	out := benchRows(q, n, 11)
	b.Run(fmt.Sprintf("12x36aux2x60/N=%d", n), func(b *testing.B) {
		b.SetBytes(int64(n) * 8 * 14)
		for i := 0; i < b.N; i++ {
			d.ModDown(xQ, xP, out)
		}
	})
}

// BenchmarkRescaleKernel measures the rescale pass (drop the top limb).
func BenchmarkRescaleKernel(b *testing.B) {
	const logN = 12
	n := 1 << logN
	q := benchModuli(b, 36, logN, 12)
	r := NewRescaler(q)
	x := benchRows(q, n, 12)
	out := benchRows(q[:len(q)-1], n, 13)
	b.Run(fmt.Sprintf("12x36/N=%d", n), func(b *testing.B) {
		b.SetBytes(int64(n) * 8 * 12)
		for i := 0; i < b.N; i++ {
			r.Rescale(x, out)
		}
	})
}

// benchTables builds the NTT tables of a chain.
func benchTables(b *testing.B, ms []ring.Modulus, logN int) []*ring.NTTTable {
	b.Helper()
	ts := make([]*ring.NTTTable, len(ms))
	for i, m := range ms {
		var err error
		if ts[i], err = ring.NewNTTTable(m, logN); err != nil {
			b.Fatalf("NewNTTTable: %v", err)
		}
	}
	return ts
}

// BenchmarkModDownNTT measures one ModDown of a key switch's accumulator at
// the bootstrap's top level (25 Q limbs over 3 special primes, log_n 12) both
// ways: "coeff" is the route ModDownNTT replaced — every row inverse-
// transformed, ModDown, every Q row forward again (2·25 + 3 transforms) — and
// "ntt" is ModDownNTT (3 + 25). Same bytes out; the difference is the kernel
// delta.
func BenchmarkModDownNTT(b *testing.B) {
	const logN = 12
	n := 1 << logN
	q := benchModuli(b, 40, logN, 25)
	p := benchModuli(b, 50, logN, 3)
	d, err := NewModDowner(q, p)
	if err != nil {
		b.Fatalf("NewModDowner: %v", err)
	}
	tQ, tP := benchTables(b, q, logN), benchTables(b, p, logN)
	xQ := benchRows(q, n, 14)
	xP := benchRows(p, n, 15)
	out := benchRows(q, n, 16)
	b.Run("coeff/25x40aux3x50", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Inverse-transforming a transform's own lazy output stays in
			// contract, so the rows are reused across iterations.
			for j, r := range xQ {
				tQ[j].InverseLazy(r)
			}
			for j, r := range xP {
				tP[j].InverseLazy(r)
			}
			d.ModDown(xQ, xP, out)
			for j, r := range out {
				tQ[j].Forward(r)
			}
		}
	})
	b.Run("ntt/25x40aux3x50", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d.ModDownNTT(xQ, xP, out, tQ, tP) // consumes xP: see above
		}
	})
}

// BenchmarkRescaleNTT is the same comparison for a rescale of one 25-limb
// polynomial: "coeff" is a full INTT, Rescale and a forward NTT (25 + 24
// transforms), "ntt" is RescaleNTT (1 + 24).
func BenchmarkRescaleNTT(b *testing.B) {
	const logN = 12
	n := 1 << logN
	q := benchModuli(b, 40, logN, 25)
	r := NewRescaler(q)
	ts := benchTables(b, q, logN)
	x := benchRows(q, n, 17)
	tmp := benchRows(q, n, 18)
	out := benchRows(q[:len(q)-1], n, 19)
	b.Run("coeff/25x40", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range tmp {
				copy(tmp[j], x[j])
				ts[j].Inverse(tmp[j])
			}
			r.Rescale(tmp, out)
			for j, row := range out {
				ts[j].Forward(row)
			}
		}
	})
	b.Run("ntt/25x40", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.RescaleNTT(x, out, ts)
		}
	})
}
