package rns

import (
	"math/big"
	"math/rand"
	"testing"

	"github.com/fastfhe/fast/internal/ring"
	"github.com/fastfhe/fast/internal/ring/kerneltest"
)

// refConvert computes the HPS approximate base conversion with math/big:
// dst[j][k] = ( Σ_i [x_i * (Q/q_i)^-1 mod q_i] * (Q/q_i mod p_j) ) mod p_j.
// This is the exact formula the 128-bit accumulating kernel must reproduce
// bit for bit.
func refConvert(from, to []ring.Modulus, src [][]uint64) [][]uint64 {
	Q := prod(from)
	l := len(from)
	n := len(src[0])
	t := make([][]uint64, l)
	hatModP := make([][]*big.Int, len(to))
	for j, mp := range to {
		hatModP[j] = make([]*big.Int, l)
		pj := new(big.Int).SetUint64(mp.Q)
		for i, m := range from {
			hat := new(big.Int).Div(Q, new(big.Int).SetUint64(m.Q))
			hatModP[j][i] = hat.Mod(hat, pj)
		}
	}
	for i, m := range from {
		qi := new(big.Int).SetUint64(m.Q)
		hat := new(big.Int).Div(Q, qi)
		inv := m.InvMod(new(big.Int).Mod(hat, qi).Uint64())
		t[i] = make([]uint64, n)
		for k := 0; k < n; k++ {
			// Exact over any input magnitude, matching MulModShoup's contract.
			xi := new(big.Int).SetUint64(src[i][k])
			xi.Mod(xi, qi)
			t[i][k] = m.MulMod(xi.Uint64(), inv)
		}
	}
	dst := rows(len(to), n)
	acc := new(big.Int)
	term := new(big.Int)
	for j, mp := range to {
		pj := new(big.Int).SetUint64(mp.Q)
		for k := 0; k < n; k++ {
			acc.SetUint64(0)
			for i := 0; i < l; i++ {
				term.SetUint64(t[i][k])
				term.Mul(term, hatModP[j][i])
				acc.Add(acc, term)
			}
			dst[j][k] = acc.Mod(acc, pj).Uint64()
		}
	}
	return dst
}

func randRows(rng *rand.Rand, ms []ring.Modulus, n int, lazy bool) [][]uint64 {
	out := rows(len(ms), n)
	for i, m := range ms {
		bound := m.Q
		if lazy {
			bound = 2 * m.Q
		}
		for k := 0; k < n; k++ {
			out[i][k] = rng.Uint64() % bound
		}
		out[i][0], out[i][1] = bound-1, 0 // the edges of the input range
	}
	return out
}

// TestConvertMatchesBigIntReference pins the Convert kernel against the
// math/big reference, bit for bit, on every kernel path: across the datapath
// widths (36-, 40-, 50/51- and 60-bit chains, same-width and mixed bases in
// both directions) and every unrolled width of the ring.BConvAccum inner
// product (1..4 source limbs plus the generic tail), on canonical and lazy
// ([0, 2q)) inputs. lane52 is what the per-target dispatch predicate must say:
// a base with a 60-bit source or target stays on the 64-bit kernel.
func TestConvertMatchesBigIntReference(t *testing.T) {
	const logN, n = 4, 16
	q36 := moduli(t, 36, logN, 8)
	q40 := moduli(t, 40, logN, 4)
	q50 := moduli(t, 50, logN, 4) // scans up from 2^50 first: 51- and 50-bit primes
	q60 := moduli(t, 60, logN, 8)
	cases := []struct {
		name     string
		from, to []ring.Modulus
		lane52   bool
	}{
		{"1x36to2x60", q36[:1], q60[:2], false},
		{"2x36to3x60", q36[:2], q60[:3], false},
		{"3x60to4x36", q60[:3], q36[:4], false},
		{"4x36to2x60", q36[:4], q60[:2], false},
		{"6x36to3x60", q36[:6], q60[:3], false}, // generic (non-unrolled) accumulator
		{"5x60to5x36", q60[:5], q36[3:8], false},
		{"3x36to4x50", q36[:3], q50, true},
		{"3x50to4x40", q50[:3], q40, true},
		{"3x36to5x36", q36[:3], q36[3:8], true},
	}
	for _, tc := range cases {
		ext, err := NewExtender(tc.from, tc.to)
		if err != nil {
			t.Fatalf("%s: NewExtender: %v", tc.name, err)
		}
		// What NewExtender hands ring's per-target dispatch: the bound of the
		// source rows and the target modulus. Either one past the 52-bit lanes
		// keeps the 64-bit kernel (the rule itself is pinned in ring's
		// TestLane52Predicate).
		for j, mp := range tc.to {
			if got := ext.srcBound <= 1<<52 && mp.Lane52(); got != tc.lane52 {
				t.Errorf("%s: target %d (q=%d, source bound %d) 52-bit datapath = %v, want %v", tc.name, j, mp.Q, ext.srcBound, got, tc.lane52)
			}
		}
		t.Run(tc.name, func(t *testing.T) {
			kerneltest.EachPath(t, func(t *testing.T) {
				rng := rand.New(rand.NewSource(201))
				for _, lazy := range []bool{false, true} {
					src := randRows(rng, tc.from, n, lazy)
					dst := rows(len(tc.to), n)
					ext.Convert(src, dst)
					want := refConvert(tc.from, tc.to, src)
					for j, mp := range tc.to {
						for k := 0; k < n; k++ {
							if dst[j][k] >= mp.Q {
								t.Fatalf("lazy=%v: output %d >= p at [%d][%d]", lazy, dst[j][k], j, k)
							}
							if dst[j][k] != want[j][k] {
								t.Fatalf("lazy=%v: Convert diverges from big.Int reference at [%d][%d]: %d != %d",
									lazy, j, k, dst[j][k], want[j][k])
							}
						}
					}
				}
			})
		})
	}
}

// TestConvertFoldPathMatchesBigInt drives the public Convert through the
// long-base fold fallback: a 60-bit target modulus holds ~15 accumulator
// terms, so a source base with more limbs than that must fold through an
// intermediate Barrett reduction — and still match the reference bit for bit.
func TestConvertFoldPathMatchesBigInt(t *testing.T) {
	const logN, n = 4, 16
	rng := rand.New(rand.NewSource(202))
	to := moduli(t, 60, logN, 1)
	capTerms := to[0].AccumCapacity()
	if capTerms > 40 {
		t.Skipf("target capacity %d too large to exercise the fold path cheaply", capTerms)
	}
	from := moduli(t, 36, logN, capTerms+1) // l > capTerms forces convertFold
	ext, err := NewExtender(from, to)
	if err != nil {
		t.Fatalf("NewExtender: %v", err)
	}
	src := randRows(rng, from, n, true)
	dst := rows(1, n)
	ext.Convert(src, dst)
	want := refConvert(from, to, src)
	for k := 0; k < n; k++ {
		if dst[0][k] != want[0][k] {
			t.Fatalf("fold path diverges from reference at %d: %d != %d", k, dst[0][k], want[0][k])
		}
	}
}

// TestConvertFoldMatchesAccum checks the fold fallback against the straight
// accumulator on the same data with an artificially tiny capacity, proving
// the intermediate reductions are value-preserving at every fold boundary.
func TestConvertFoldMatchesAccum(t *testing.T) {
	const logN, n = 4, 16
	rng := rand.New(rand.NewSource(203))
	from := moduli(t, 36, logN, 6)
	to := moduli(t, 60, logN, 1)
	ext, err := NewExtender(from, to)
	if err != nil {
		t.Fatalf("NewExtender: %v", err)
	}
	src := randRows(rng, from, n, false)
	dst := rows(1, n)
	ext.Convert(src, dst) // reference via the accumulating path (6 << capacity)
	// Recompute stage 1 to feed the fold directly.
	tRows := rows(len(from), n)
	for i, m := range from {
		inv := ext.qhatInv[i]
		invSho := ext.qhatInvSho[i]
		for k := 0; k < n; k++ {
			tRows[i][k] = m.MulModShoup(src[i][k], inv, invSho)
		}
	}
	for _, capTerms := range []int{1, 2, 3, 5} {
		got := make([]uint64, n)
		convertFold(to[0], tRows, ext.qhatModP[0], got, n, capTerms)
		for k := 0; k < n; k++ {
			if got[k] != dst[0][k] {
				t.Fatalf("capTerms=%d: fold diverges from accumulator at %d: %d != %d",
					capTerms, k, got[k], dst[0][k])
			}
		}
	}
}

// TestModDownLazyInputEquivalence checks ModDown's lazy input contract:
// feeding rows in [0, 2q) produces bit-identical, fully reduced outputs to
// feeding their canonical representatives.
func TestModDownLazyInputEquivalence(t *testing.T) {
	const logN = 4
	for _, tc := range []struct {
		name         string
		qBits, pBits int
	}{{"36over60", 36, 60}, {"60over36", 60, 36}, {"36over50", 36, 50}, {"50over40", 50, 40}} {
		q := moduli(t, tc.qBits, logN, 4)
		p := moduli(t, tc.pBits, logN, 2)
		t.Run(tc.name, func(t *testing.T) {
			var first [][]uint64
			kerneltest.EachPath(t, func(t *testing.T) {
				out := modDownLazyEquivalence(t, q, p)
				if first == nil {
					first = out
				}
				for i := range out {
					for k := range out[i] {
						if out[i][k] != first[i][k] {
							t.Fatalf("ModDown differs between kernel paths at [%d][%d]: %d != %d", i, k, out[i][k], first[i][k])
						}
					}
				}
			})
		})
	}
}

func modDownLazyEquivalence(t *testing.T, q, p []ring.Modulus) [][]uint64 {
	const n = 16
	rng := rand.New(rand.NewSource(204))
	d, err := NewModDowner(q, p)
	if err != nil {
		t.Fatalf("NewModDowner: %v", err)
	}
	xQLazy := randRows(rng, q, n, true)
	xPLazy := randRows(rng, p, n, true)
	xQ := rows(len(q), n)
	xP := rows(len(p), n)
	for i, m := range q {
		for k := 0; k < n; k++ {
			xQ[i][k] = xQLazy[i][k] % m.Q
		}
	}
	for i, m := range p {
		for k := 0; k < n; k++ {
			xP[i][k] = xPLazy[i][k] % m.Q
		}
	}
	out1 := rows(len(q), n)
	out2 := rows(len(q), n)
	d.ModDown(xQ, xP, out1)
	d.ModDown(xQLazy, xPLazy, out2)
	for i, m := range q {
		for k := 0; k < n; k++ {
			if out1[i][k] >= m.Q {
				t.Fatalf("ModDown output %d >= q at [%d][%d]", out1[i][k], i, k)
			}
			if out1[i][k] != out2[i][k] {
				t.Fatalf("ModDown lazy/canonical mismatch at [%d][%d]: %d != %d", i, k, out2[i][k], out1[i][k])
			}
		}
	}
	return out1
}

// TestRescaleLazyInputEquivalence is the same contract check for Rescale, on
// chains whose dropped top limb is narrower than, as wide as and wider than
// the limbs below it (a 60-bit top limb or target keeps the 64-bit kernel).
func TestRescaleLazyInputEquivalence(t *testing.T) {
	const logN = 4
	q36, q40, q50, q60 := moduli(t, 36, logN, 5), moduli(t, 40, logN, 4), moduli(t, 50, logN, 4), moduli(t, 60, logN, 4)
	for _, tc := range []struct {
		name string
		ms   []ring.Modulus
	}{
		{"36", q36},
		{"50below40", append(append([]ring.Modulus(nil), q50...), q40[0])},
		{"36below50", append(append([]ring.Modulus(nil), q36[:3]...), q50[0])},
		{"36below60", append(append([]ring.Modulus(nil), q36[:3]...), q60[0])},
		{"60below36", append(append([]ring.Modulus(nil), q60[:3]...), q36[0])},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var first [][]uint64
			kerneltest.EachPath(t, func(t *testing.T) {
				out := rescaleLazyEquivalence(t, tc.ms)
				if first == nil {
					first = out
				}
				for i := range out {
					for k := range out[i] {
						if out[i][k] != first[i][k] {
							t.Fatalf("Rescale differs between kernel paths at [%d][%d]: %d != %d", i, k, out[i][k], first[i][k])
						}
					}
				}
			})
		})
	}
}

func rescaleLazyEquivalence(t *testing.T, ms []ring.Modulus) [][]uint64 {
	const n = 16
	rng := rand.New(rand.NewSource(205))
	r := NewRescaler(ms)
	xLazy := randRows(rng, ms, n, true)
	// The top limb stays canonical: a lazy top-limb representative rep+q_l is
	// an equally valid rescale input but subtracts a different representative,
	// shifting outputs by 1 mod q_i — correct (the scale absorbs it) yet not
	// bit-identical. Bit-equality is the contract for the non-top rows.
	l := len(ms) - 1
	for k := 0; k < n; k++ {
		xLazy[l][k] %= ms[l].Q
	}
	x := rows(len(ms), n)
	for i, m := range ms {
		for k := 0; k < n; k++ {
			x[i][k] = xLazy[i][k] % m.Q
		}
	}
	out1 := rows(len(ms)-1, n)
	out2 := rows(len(ms)-1, n)
	r.Rescale(x, out1)
	r.Rescale(xLazy, out2)
	for i := 0; i < len(ms)-1; i++ {
		for k := 0; k < n; k++ {
			if out1[i][k] >= ms[i].Q {
				t.Fatalf("Rescale output %d >= q at [%d][%d]", out1[i][k], i, k)
			}
			if out1[i][k] != out2[i][k] {
				t.Fatalf("Rescale lazy/canonical mismatch at [%d][%d]", i, k)
			}
		}
	}
	return out1
}

// nttTables builds the NTT tables of a chain at degree 2^logN.
func nttTables(t *testing.T, ms []ring.Modulus, logN int) []*ring.NTTTable {
	t.Helper()
	ts := make([]*ring.NTTTable, len(ms))
	for i, m := range ms {
		var err error
		if ts[i], err = ring.NewNTTTable(m, logN); err != nil {
			t.Fatalf("NewNTTTable(%d): %v", m.Q, err)
		}
	}
	return ts
}

func cloneRows(src [][]uint64) [][]uint64 {
	out := rows(len(src), len(src[0]))
	for i := range src {
		copy(out[i], src[i])
	}
	return out
}

// sameRows fails the test at the first word where got and want differ.
func sameRows(t *testing.T, what string, got, want [][]uint64) {
	t.Helper()
	for i := range want {
		for k := range want[i] {
			if got[i][k] != want[i][k] {
				t.Fatalf("%s differs at [%d][%d]: %d != %d", what, i, k, got[i][k], want[i][k])
			}
		}
	}
}

// TestModDownNTTMatchesCoefficientDomain holds ModDownNTT, byte for byte on
// every kernel path, to the route it replaces: both inputs inverse-transformed
// lazily (so the P rows reach ModDown in [0, 2q), straight out of
// InverseLazy), ModDown, and a forward NTT of every output row. The chains
// cover 36-, 40- and 50-bit Q over the 50/51-bit special primes and the 60-bit
// KLSS chain T as P in both directions; n = 64 runs every transform and vector
// kernel on its assembly path.
func TestModDownNTTMatchesCoefficientDomain(t *testing.T) {
	const logN, n = 6, 64
	q50 := moduli(t, 50, logN, 6) // 51- and 50-bit primes, scanning up from 2^50
	for _, tc := range []struct {
		name string
		q, p []ring.Modulus
	}{
		{"36over50", moduli(t, 36, logN, 4), q50[:3]},
		{"40over50", moduli(t, 40, logN, 5), q50[:2]},
		{"50over51", q50[3:], q50[:3]},
		{"36over60", moduli(t, 36, logN, 4), moduli(t, 60, logN, 2)},
		{"60over36", moduli(t, 60, logN, 3), moduli(t, 36, logN, 2)},
	} {
		d, err := NewModDowner(tc.q, tc.p)
		if err != nil {
			t.Fatalf("%s: NewModDowner: %v", tc.name, err)
		}
		tQ, tP := nttTables(t, tc.q, logN), nttTables(t, tc.p, logN)
		rng := rand.New(rand.NewSource(206))
		xQ := randRows(rng, tc.q, n, true) // NTT form; lazy rows are in contract
		xP := randRows(rng, tc.p, n, false)
		t.Run(tc.name, func(t *testing.T) {
			var first [][]uint64
			kerneltest.EachPath(t, func(t *testing.T) {
				cQ, cP := cloneRows(xQ), cloneRows(xP)
				for i, r := range cQ {
					tQ[i].InverseLazy(r)
				}
				for j, r := range cP {
					tP[j].InverseLazy(r)
				}
				want := rows(len(tc.q), n)
				d.ModDown(cQ, cP, want)
				for i, r := range want {
					tQ[i].Forward(r)
				}
				got := rows(len(tc.q), n)
				d.ModDownNTT(cloneRows(xQ), cloneRows(xP), got, tQ, tP)
				sameRows(t, "ModDownNTT vs NTT∘ModDown", got, want)
				if first == nil {
					first = got
				}
				sameRows(t, "ModDownNTT across kernel paths", got, first)
			})
		})
	}
}

// TestRescaleNTTMatchesCoefficientDomain holds RescaleNTT, byte for byte on
// every kernel path, to a full INTT, Rescale and a forward NTT, on chains
// whose dropped limb is narrower than, as wide as and wider than the limbs
// below it — the three branches of ring.ReduceForeignVec (copy, the 52-bit
// reduction, the 64-bit one). On the 60-bit dropped limb the inputs are
// chosen so that InverseLazy leaves some coefficient on its other
// representative: the match there pins RescaleNTT to the canonical x_l
// (Inverse), since the lazy one would shift that output by q_l^-1. (On
// narrower limbs the lazy Shoup step almost never lands in [q, 2q), so random
// inputs cannot tell the two apart.)
func TestRescaleNTTMatchesCoefficientDomain(t *testing.T) {
	const logN, n = 6, 64
	q36, q40, q50, q60 := moduli(t, 36, logN, 5), moduli(t, 40, logN, 4), moduli(t, 50, logN, 4), moduli(t, 60, logN, 4)
	for _, tc := range []struct {
		name         string
		ms           []ring.Modulus
		pinCanonical bool
	}{
		{"36", q36, false},
		{"50below40", append(append([]ring.Modulus(nil), q50...), q40[0]), false},
		{"40below50", append(append([]ring.Modulus(nil), q40[:3]...), q50[0]), false},
		{"36below60", append(append([]ring.Modulus(nil), q36[:3]...), q60[0]), true},
		{"60below36", append(append([]ring.Modulus(nil), q60[:3]...), q36[0]), false},
	} {
		r := NewRescaler(tc.ms)
		ts := nttTables(t, tc.ms, logN)
		l := len(tc.ms) - 1
		t.Run(tc.name, func(t *testing.T) {
			var first [][]uint64
			kerneltest.EachPath(t, func(t *testing.T) {
				rng := rand.New(rand.NewSource(207))
				x := randRows(rng, tc.ms, n, true)
				if tc.pinCanonical {
					x = lazyDistinguishing(t, rng, tc.ms, ts[l], n)
				}
				c := cloneRows(x)
				for i, row := range c {
					ts[i].Inverse(row)
				}
				want := rows(l, n)
				r.Rescale(c, want)
				for i, row := range want {
					ts[i].Forward(row)
				}
				got := rows(l, n)
				orig := cloneRows(x)
				r.RescaleNTT(x, got, ts)
				sameRows(t, "RescaleNTT vs NTT∘Rescale∘INTT", got, want)
				sameRows(t, "RescaleNTT's input, which it must not write", x, orig)
				if first == nil {
					first = got
				}
				sameRows(t, "RescaleNTT across kernel paths", got, first)
			})
		})
	}
}

// lazyDistinguishing draws NTT-form rows (lazy, in contract) until
// InverseLazy of the dropped limb leaves at least one coefficient on the
// representative the full Inverse does not.
func lazyDistinguishing(t *testing.T, rng *rand.Rand, ms []ring.Modulus, top *ring.NTTTable, n int) [][]uint64 {
	t.Helper()
	l := len(ms) - 1
	for try := 0; try < 16; try++ {
		x := randRows(rng, ms, n, true)
		lazy, full := append([]uint64(nil), x[l]...), append([]uint64(nil), x[l]...)
		top.InverseLazy(lazy)
		top.Inverse(full)
		for k := range lazy {
			if lazy[k] != full[k] {
				return x
			}
		}
	}
	t.Fatal("no input found on which InverseLazy and Inverse pick different representatives")
	return nil
}
