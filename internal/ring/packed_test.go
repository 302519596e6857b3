package ring_test

import (
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"github.com/fastfhe/fast/internal/ring"
	"github.com/fastfhe/fast/internal/ring/kerneltest"
)

// packedModuli returns the moduli the packed multiply-accumulate is checked
// with at width b: the widest whose residues fit b bits (the largest prime
// below 2^b, 2^61−1 at 64) and, from b = 40 on, a 36-bit prime packed wider
// than it needs.
func packedModuli(t *testing.T, b int) []ring.Modulus {
	t.Helper()
	top := min(b, ring.MaxModulusBits)
	p := new(big.Int).Lsh(big.NewInt(1), uint(top))
	for p.Sub(p, big.NewInt(1)); !p.ProbablyPrime(20); p.Sub(p, big.NewInt(1)) {
	}
	ms := []ring.Modulus{ring.MustModulus(t, p.Uint64())}
	if ms[0].PackedBits() != b {
		t.Fatalf("q=%d packs at %d bits, want %d", ms[0].Q, ms[0].PackedBits(), b)
	}
	if b >= 40 {
		ms = append(ms, ring.FirstPrime(t, 36, 13))
	}
	return ms
}

// TestMulAccPackedRowsMatchesUnpacked: on every kernel path, the
// multiply-accumulate over packed rows equals MulAccRows over the same rows
// unpacked, bit for bit, at every packed width (2 to 57 bits and 64; no
// modulus the ring accepts has 1-bit residues but q = 2), for row lengths 16
// to 8192 and 1 to 32 terms (KeyMult's widest digit table) — past 15 terms a
// 51-bit row leaves the 52-bit kernel for the Go loop, and a row length that
// is not a multiple of 16 never takes it. Where the 52-bit kernel runs, its
// accumulate-onto-dst form (mac52AddDst) is held to the unpacked one too.
// Residues at q−1 sit at both ends of every row, so a residue's top bit
// crosses a byte and, at the last one, reaches the padding. -short (the race
// gate) drops the two largest points.
func TestMulAccPackedRowsMatchesUnpacked(t *testing.T) {
	var widths []int
	for b := 2; b <= 57; b++ {
		widths = append(widths, b)
	}
	widths = append(widths, 64)
	kerneltest.EachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(44))
		for _, b := range widths {
			for _, m := range packedModuli(t, b) {
				points := [][2]int{{16, 1}, {48, 15}, {24, 3}, {16 * (1 + rng.Intn(512)), 1 + rng.Intn(32)}}
				if !testing.Short() {
					points = append(points, [2]int{8192, 32}, [2]int{1024, 16})
				}
				for _, pt := range points {
					checkPackedMAC(t, rng, m, b, pt[0], pt[1])
				}
			}
		}
	})
}

func checkPackedMAC(t *testing.T, rng *rand.Rand, m ring.Modulus, b, n, terms int) {
	t.Helper()
	q := m.Q
	xs, ys := make([][]uint64, terms), make([][]uint64, terms)
	ps := make([][]byte, terms)
	for j := range xs {
		xs[j], ys[j] = make([]uint64, n), make([]uint64, n)
		for k := range n {
			xs[j][k], ys[j][k] = rng.Uint64()%q, rng.Uint64()%q
		}
		ys[j][0], ys[j][n-1], xs[j][n-1] = q-1, q-1, q-1
		ps[j] = make([]byte, ring.PackedRowLen(n, b))
		ring.PackRow(ps[j], ys[j], b)
		back := make([]uint64, n)
		ring.UnpackRow(back, ps[j], b)
		if !slices.Equal(back, ys[j]) {
			t.Fatalf("q=%d b=%d n=%d: a row does not unpack to what was packed", q, b, n)
		}
	}
	where := fmt.Sprintf("q=%d b=%d n=%d terms=%d", q, b, n, terms)
	want, got := make([]uint64, n), make([]uint64, n)
	m.MulAccRows(want, xs, ys)
	m.MulAccPackedRows(got, xs, ps, b)
	if k := firstDiff(got, want); k >= 0 {
		t.Fatalf("%s: coefficient %d: packed %d, unpacked %d", where, k, got[k], want[k])
	}
	if !m.UseMAC52(n, terms) {
		return
	}
	for k := range want {
		want[k] = rng.Uint64() % q
	}
	copy(got, want)
	m.MAC52AddDst(want, xs, ys)
	m.MAC52PackedAddDst(got, xs, ps, b)
	if k := firstDiff(got, want); k >= 0 {
		t.Fatalf("%s, onto dst: coefficient %d: packed %d, unpacked %d", where, k, got[k], want[k])
	}
}

func firstDiff(a, b []uint64) int {
	for k := range a {
		if a[k] != b[k] {
			return k
		}
	}
	return -1
}
