package ring_test

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"github.com/fastfhe/fast/internal/ring"
	"github.com/fastfhe/fast/internal/ring/kerneltest"
)

// This file is the differential suite for the vectorized kernels: every
// kernel path the build and CPU offer (go, avx2, avx512ifma) runs the same
// inputs, and wherever a kernel boundary promises [0, q) the bytes must be
// identical to the pure-Go reference; lazy boundaries ([0, 2q)) must be
// congruent and inside their bound. The moduli sit at the edges of the
// per-modulus dispatch: the largest NTT prime the 52-bit datapath admits and
// the smallest it refuses (which must report the 64-bit path), next to the
// 36-, 40- and 60-bit widths of the production chains. A path the CPU lacks
// is skipped by name, so a test log shows which legs ran. The suite lives in
// the external test package so that it shares kerneltest.EachPath with the
// rns, ckks and fast tests; what it needs of ring's internals is in
// export_test.go.

// lane52Bound is the 52-bit multiplier's exclusive input bound, restated here
// so the predicate is pinned against a number and not against itself.
const lane52Bound = uint64(1) << 52

// underGo runs f on the reference path.
func underGo(f func()) {
	prev := ring.SetKernelPath(ring.PathGo)
	defer ring.SetKernelPath(prev)
	f()
}

// asmDiffModuli is the modulus set of the differential tests at one degree.
func asmDiffModuli(t testing.TB, logN int) []ring.Modulus {
	t.Helper()
	in, out := ring.Lane52Edge(t, logN)
	return []ring.Modulus{ring.FirstPrime(t, 36, logN), ring.FirstPrime(t, 40, logN), in, out, ring.FirstPrime(t, 60, logN)}
}

// TestLane52Predicate pins the per-modulus dispatch rule at its edge and on
// the chains the benchmark workloads use.
func TestLane52Predicate(t *testing.T) {
	for _, logN := range []int{11, 12, 13} {
		in, out := ring.Lane52Edge(t, logN)
		if !in.Lane52() || 2*in.Q > lane52Bound {
			t.Errorf("logN=%d: q=%d (2q <= 2^52) not admitted", logN, in.Q)
		}
		if out.Lane52() || 2*out.Q <= lane52Bound {
			t.Errorf("logN=%d: q=%d (2q > 2^52) admitted", logN, out.Q)
		}
	}
	// GenerateNTTPrimes scans upward from 2^b first: the "50-bit" special
	// primes are 2^50+ε, 51 bits, and must still qualify.
	primes, err := ring.GenerateNTTPrimes(50, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range primes {
		if !ring.MustModulus(t, q).Lane52() {
			t.Errorf("50-bit chain prime %d not admitted", q)
		}
	}
	q36, q60 := ring.FirstPrime(t, 36, 12), ring.FirstPrime(t, 60, 12)
	if q60.Lane52() {
		t.Error("60-bit prime admitted to the 52-bit datapath")
	}
	// The cross-modulus half (BConv, Rescale, KeyMult): a wide source row or
	// a wide target keeps the 64-bit kernel whatever the other side is.
	if !q36.MAC52Fits(2*q36.Q, 3) || !q36.MAC52Fits(lane52Bound, 3) {
		t.Error("36-bit target refuses lazy 36-bit / 52-bit-bounded sources")
	}
	if q36.MAC52Fits(q60.Q, 3) || q36.MAC52Fits(lane52Bound+1, 1) {
		t.Error("36-bit target admits a source row past 2^52")
	}
	if q60.MAC52Fits(q36.Q, 3) {
		t.Error("60-bit target admitted to the 52-bit multiply-accumulate")
	}
}

// nttInputs returns the input vectors of the NTT differentials: one random
// lazy vector and the adversarial ones that pin the lane-bound proof (every
// lane at the top of the lazy range, all zero, alternating).
func nttInputs(rng *rand.Rand, n int, q uint64) map[string][]uint64 {
	random := make([]uint64, n)
	top := make([]uint64, n)
	alt := make([]uint64, n)
	for i := range random {
		random[i] = rng.Uint64() % (2 * q)
		top[i] = 2*q - 1
		if i%2 == 0 {
			alt[i] = 2*q - 1
		}
	}
	return map[string][]uint64{"random": random, "all-2q-1": top, "all-0": make([]uint64, n), "alternating": alt}
}

// TestNTTASMMatchesGo pins every path's transforms against the Go stages:
// Forward and Inverse bit for bit, InverseLazy congruent and below 2q, on
// lazy inputs ([0, 2q) — the widest domain the butterflies accept), across
// sizes from the asm floor up to production degrees, and checks that each
// table reports the path the dispatch rule assigns it.
func TestNTTASMMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, logN := range []int{5, 6, 7, 9, 11, 12, 13} {
		n := 1 << logN
		for _, mod := range asmDiffModuli(t, logN) {
			tbl, err := ring.NewNTTTable(mod, logN)
			if err != nil {
				t.Fatalf("NewNTTTable: %v", err)
			}
			q := mod.Q
			for name, in := range nttInputs(rng, n, q) {
				wantF := append([]uint64(nil), in...)
				wantI := append([]uint64(nil), in...)
				underGo(func() {
					tbl.Forward(wantF)
					tbl.Inverse(wantI)
				})
				t.Run(fmt.Sprintf("logN=%d/q=%d/%s", logN, q, name), func(t *testing.T) {
					kerneltest.EachPath(t, func(t *testing.T) {
						p := ring.KernelPath()
						wantPath := p
						if p == ring.PathAVX512IFMA.String() && !mod.Lane52() {
							wantPath = ring.PathAVX2.String()
						}
						if got := tbl.Kernel().String(); got != wantPath {
							t.Fatalf("table reports path %s, want %s", got, wantPath)
						}
						got := append([]uint64(nil), in...)
						tbl.Forward(got)
						for i := range got {
							if got[i] != wantF[i] {
								t.Fatalf("Forward diverges at %d: go=%d %s=%d", i, wantF[i], p, got[i])
							}
						}
						copy(got, in)
						tbl.Inverse(got)
						for i := range got {
							if got[i] != wantI[i] {
								t.Fatalf("Inverse diverges at %d: go=%d %s=%d", i, wantI[i], p, got[i])
							}
						}
						copy(got, in)
						tbl.InverseLazy(got)
						for i := range got {
							if got[i] >= 2*q || got[i]%q != wantI[i] {
								t.Fatalf("InverseLazy[%d] = %d: not in [0,2q) congruent to %d", i, got[i], wantI[i])
							}
						}
						// Forward∘Inverse must return the canonical input:
						// round-trip closure, not just Go-equality.
						for i := range got {
							got[i] = in[i] % q
						}
						tbl.Forward(got)
						tbl.Inverse(got)
						for i := range got {
							if got[i] != in[i]%q {
								t.Fatalf("round trip diverges at %d: %d != %d", i, got[i], in[i]%q)
							}
						}
					})
				})
			}
		}
	}
}

// lazyContractTables is the table set of the two lazy-contract tests below:
// the production widths on both sides of the 52-bit dispatch, and its edge.
func lazyContractTables(t *testing.T, logNs []int) []*ring.NTTTable {
	t.Helper()
	var out []*ring.NTTTable
	for _, logN := range logNs {
		for _, mod := range asmDiffModuli(t, logN) {
			tbl, err := ring.NewNTTTable(mod, logN)
			if err != nil {
				t.Fatalf("NewNTTTable: %v", err)
			}
			out = append(out, tbl)
		}
	}
	return out
}

// TestNTTToleratesLazyInputs checks the documented input contract on every
// kernel path: Forward and Inverse accept coefficients in [0, 2q) and produce
// the same fully-reduced bits as on the canonical representatives.
func TestNTTToleratesLazyInputs(t *testing.T) {
	tables := lazyContractTables(t, []int{4, 8, 11})
	kerneltest.EachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(103))
		for _, tbl := range tables {
			q := tbl.Mod.Q
			for trial := 0; trial < 5; trial++ {
				lazy := randBelow(rng, tbl.N, 2*q)
				lazy[0], lazy[1] = 2*q-1, q // the top of the lazy range, and the first non-canonical value
				canon := make([]uint64, tbl.N)
				for i := range canon {
					canon[i] = lazy[i] % q
				}
				fl := append([]uint64(nil), lazy...)
				fc := append([]uint64(nil), canon...)
				tbl.Forward(fl)
				tbl.Forward(fc)
				for i := range fl {
					if fl[i] != fc[i] {
						t.Fatalf("q=%d N=%d: Forward lazy/canonical mismatch at %d", q, tbl.N, i)
					}
				}
				il := append([]uint64(nil), lazy...)
				ic := append([]uint64(nil), canon...)
				tbl.Inverse(il)
				tbl.Inverse(ic)
				for i := range il {
					if il[i] != ic[i] {
						t.Fatalf("q=%d N=%d: Inverse lazy/canonical mismatch at %d", q, tbl.N, i)
					}
				}
			}
		}
	})
}

// TestInverseLazyCongruent checks InverseLazy's contract on every kernel
// path: outputs live in [0, 2q) and are congruent mod q to the fully-reduced
// Inverse, on both canonical and lazy inputs.
func TestInverseLazyCongruent(t *testing.T) {
	tables := lazyContractTables(t, []int{1, 4, 8, 11})
	kerneltest.EachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(104))
		for _, tbl := range tables {
			q := tbl.Mod.Q
			for trial := 0; trial < 5; trial++ {
				a := randBelow(rng, tbl.N, 2*q)
				a[0] = 2*q - 1
				full := append([]uint64(nil), a...)
				lazy := append([]uint64(nil), a...)
				tbl.Inverse(full)
				tbl.InverseLazy(lazy)
				for i := range lazy {
					if lazy[i] >= 2*q {
						t.Fatalf("q=%d N=%d: InverseLazy output %d >= 2q at %d", q, tbl.N, lazy[i], i)
					}
					if lazy[i]%q != full[i] {
						t.Fatalf("q=%d N=%d: InverseLazy not congruent to Inverse at %d", q, tbl.N, i)
					}
				}
			}
		}
	})
}

func randBelow(rng *rand.Rand, n int, bound uint64) []uint64 {
	a := make([]uint64, n)
	for i := range a {
		a[i] = rng.Uint64() % bound
	}
	return a
}

// diffVec runs f under the Go path and then under every path, requiring
// identical output bytes.
func diffVec(t *testing.T, what string, n int, f func(dst []uint64)) {
	t.Helper()
	diffVecWhere(t, what, n, func() bool { return true }, f)
}

// diffVecWhere is diffVec restricted to the paths on which inDomain (asked
// with that path selected) says f's inputs are inside the kernel's contract.
func diffVecWhere(t *testing.T, what string, n int, inDomain func() bool, f func(dst []uint64)) {
	t.Helper()
	want := make([]uint64, n)
	underGo(func() { f(want) })
	t.Run(what, func(t *testing.T) {
		kerneltest.EachPath(t, func(t *testing.T) {
			if !inDomain() {
				t.Skip("inputs outside the domain of the kernel this path selects")
			}
			got := make([]uint64, n)
			f(got)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("diverges at %d: go=%d %s=%d", i, want[i], ring.KernelPath(), got[i])
				}
			}
		})
	})
}

// TestVectorPrimitivesASMMatchGo pins ShoupMulVec (lazy src on every path,
// full 64-bit src — the exactness domain of the Shoup multiply — on every
// kernel but the 52-bit one), ShoupMulSubVec (lazy operands, the ModDown
// contract), ShoupMulSubForeignVec (a foreign residue,
// the Rescale contract), both BConvAccum flavors (strided lazy rows, every
// width through the unrolled cases, the generic tail, and the lazy-Shoup
// kernel's crossover at bconvShoupMaxTerms), MulCoeffs / MulCoeffsThenAdd,
// the add/sub/neg kernels and the permutation gathers (PermuteRow,
// PermuteAddRow) against the Go loops on every path.
func TestVectorPrimitivesASMMatchGo(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{ring.AsmMinVec, 64, 100} { // 100: non-power-of-two multiple of 4
		for _, mod := range asmDiffModuli(t, 5) {
			q := mod.Q
			w := rng.Uint64() % q
			ws := mod.ShoupPrecomp(w)
			name := fmt.Sprintf("n=%d/q=%d/", n, q)

			src := make([]uint64, n)
			x := make([]uint64, n)
			sub := make([]uint64, n)
			canonA := make([]uint64, n)
			canonB := make([]uint64, n)
			for i := range src {
				src[i] = rng.Uint64() % (2 * q)
				x[i] = rng.Uint64() % (2 * q)
				sub[i] = rng.Uint64() % (2 * q)
				canonA[i] = rng.Uint64() % q
				canonB[i] = rng.Uint64() % q
			}
			src[0], x[0], sub[0], canonA[0], canonB[0] = 2*q-1, 0, 2*q-1, q-1, q-1
			src[1], x[1], sub[1], canonA[1], canonB[1] = 0, 2*q-1, 0, 0, q-1
			diffVec(t, name+"ShoupMulVec", n, func(dst []uint64) { mod.ShoupMulVec(dst, src, w, ws) })
			// The Go loop and the 64-bit kernels are exact for ANY 64-bit src
			// (Shoup reduction does not need x < 2q); only the 52-bit
			// multiplier narrows the domain. Hold them to the full range
			// wherever the 52-bit kernel is not the one selected.
			full := make([]uint64, n)
			for i := range full {
				full[i] = rng.Uint64()
			}
			full[0], full[1] = ^uint64(0), 1<<63
			diffVecWhere(t, name+"ShoupMulVec/full-64-bit-src", n, func() bool { return !mod.Use52(n) },
				func(dst []uint64) { mod.ShoupMulVec(dst, full, w, ws) })
			diffVec(t, name+"ShoupMulSubVec", n, func(dst []uint64) { mod.ShoupMulSubVec(dst, x, sub, w, ws) })

			// Foreign residues: a bound the 52-bit multiplier takes (all
			// lanes at its top) and one it must refuse; ReduceForeignVec also
			// gets a bound it copies through (2q).
			for _, yBound := range []uint64{2 * q, lane52Bound, 1 << 61} {
				y := make([]uint64, n)
				for i := range y {
					y[i] = rng.Uint64() % yBound
				}
				y[0] = yBound - 1
				bound := fmt.Sprintf("ybound=%#x", yBound)
				diffVec(t, name+"ShoupMulSubForeignVec/"+bound, n,
					func(dst []uint64) { mod.ShoupMulSubForeignVec(dst, x, y, yBound, w, ws) })
				diffVec(t, name+"ReduceForeignVec/"+bound, n, func(dst []uint64) {
					mod.ReduceForeignVec(dst, y, yBound)
					for i := range dst {
						if dst[i] >= 2*q || dst[i]%q != y[i]%q {
							t.Errorf("ReduceForeignVec[%d] = %d for y = %d, want a residue below 2q", i, dst[i], y[i])
							return
						}
					}
				})
			}

			for l := 1; l <= 13; l++ {
				if l > mod.AccumCapacity() {
					break
				}
				stride := n + 8 // rows deliberately not adjacent: exercise the stride walk
				rows := make([]uint64, l*stride)
				for i := range rows {
					rows[i] = rng.Uint64() % (2 * q)
				}
				rows[0] = 2*q - 1
				wsv := make([]uint64, l)
				wsSho := make([]uint64, l)
				for i := range wsv {
					wsv[i] = rng.Uint64() % q
					wsSho[i] = mod.ShoupPrecomp(wsv[i])
				}
				wsv[0], wsSho[0] = q-1, mod.ShoupPrecomp(q-1)
				diffVec(t, fmt.Sprintf("%sBConvAccum/l=%d", name, l), n,
					func(dst []uint64) { mod.BConvAccum(dst, rows, stride, wsv, 2*q) })
				// BConvAccumShoup must produce the identical fully reduced sum
				// through whichever kernel it picks.
				diffVec(t, fmt.Sprintf("%sBConvAccumShoup/l=%d", name, l), n,
					func(dst []uint64) { mod.BConvAccumShoup(dst, rows, stride, wsv, wsSho, 2*q) })
			}

			r := &ring.Ring{N: n, Moduli: []ring.Modulus{mod}}
			pa, pb := ring.Poly{Coeffs: [][]uint64{canonA}}, ring.Poly{Coeffs: [][]uint64{canonB}}
			diffVec(t, name+"MulCoeffs", n, func(dst []uint64) { r.MulCoeffs(pa, pb, ring.Poly{Coeffs: [][]uint64{dst}}) })
			diffVec(t, name+"MulCoeffsThenAdd", n, func(dst []uint64) {
				copy(dst, canonB)
				r.MulCoeffsThenAdd(pa, pb, ring.Poly{Coeffs: [][]uint64{dst}})
			})
			diffVec(t, name+"Add", n, func(dst []uint64) { r.Add(pa, pb, ring.Poly{Coeffs: [][]uint64{dst}}) })
			diffVec(t, name+"Sub", n, func(dst []uint64) { r.Sub(pa, pb, ring.Poly{Coeffs: [][]uint64{dst}}) })
			diffVec(t, name+"Neg", n, func(dst []uint64) { r.Neg(pa, ring.Poly{Coeffs: [][]uint64{dst}}) })
			perm := rng.Perm(n)
			diffVec(t, name+"PermuteRow", n, func(dst []uint64) { ring.PermuteRow(dst, canonA, perm) })
			diffVec(t, name+"PermuteAddRow", n, func(dst []uint64) {
				copy(dst, canonB)
				mod.PermuteAddRow(dst, canonA, perm)
			})
		}
	}
}

// TestMulAccRowsMatchesBigInt holds the multiply-accumulate (mac52 and its
// one fold on the 52-bit path, the 128-bit accumulator elsewhere) to math/big
// at 1, 3 and 9 terms and at the largest term count MAC52Fits admits, with
// every operand at q-1 — the sum that comes closest to every lane bound — and
// with random operands. MulAccScalars, the same sum with each ys row one
// broadcast word, runs on its first column.
func TestMulAccRowsMatchesBigInt(t *testing.T) {
	const n = 32
	rng := rand.New(rand.NewSource(11))
	for _, mod := range asmDiffModuli(t, 5) {
		q := mod.Q
		terms := []int{1, 3, 9}
		if mod.Lane52() {
			most := 1
			for most < ring.MAC52MaxTerms && mod.MAC52Fits(q, most+1) {
				most++
			}
			if mod.MAC52Fits(q, most+1) {
				t.Fatalf("q=%d: MAC52Fits admits %d terms, past the lane cap", q, most+1)
			}
			terms = append(terms, most)
		}
		for _, l := range terms {
			for _, fill := range []string{"q-1", "random"} {
				xs := make([][]uint64, l)
				ys := make([][]uint64, l)
				want := make([]*big.Int, n)
				for k := range want {
					want[k] = new(big.Int)
				}
				tmp := new(big.Int)
				for j := range xs {
					xs[j] = make([]uint64, n)
					ys[j] = make([]uint64, n)
					for k := 0; k < n; k++ {
						xs[j][k], ys[j][k] = q-1, q-1
						if fill == "random" {
							xs[j][k], ys[j][k] = rng.Uint64()%q, rng.Uint64()%q
						}
						tmp.SetUint64(xs[j][k])
						want[k].Add(want[k], tmp.Mul(tmp, new(big.Int).SetUint64(ys[j][k])))
					}
				}
				// The broadcast sum: ys[j][0] times every coefficient of xs[j].
				ws := make([]uint64, l)
				wantB := make([]*big.Int, n)
				for k := range wantB {
					wantB[k] = new(big.Int)
				}
				for j := range xs {
					ws[j] = ys[j][0]
					for k := 0; k < n; k++ {
						tmp.SetUint64(xs[j][k])
						wantB[k].Add(wantB[k], tmp.Mul(tmp, new(big.Int).SetUint64(ws[j])))
					}
				}
				qB := new(big.Int).SetUint64(q)
				for k := range want {
					want[k].Mod(want[k], qB)
					wantB[k].Mod(wantB[k], qB)
				}
				t.Run(fmt.Sprintf("q=%d/terms=%d/%s", q, l, fill), func(t *testing.T) {
					kerneltest.EachPath(t, func(t *testing.T) {
						got := make([]uint64, n)
						mod.MulAccRows(got, xs, ys)
						gotB := make([]uint64, n)
						mod.MulAccScalars(gotB, xs, ws)
						for k := range got {
							if got[k] != want[k].Uint64() {
								t.Fatalf("coefficient %d: got %d, want %d", k, got[k], want[k])
							}
							if gotB[k] != wantB[k].Uint64() {
								t.Fatalf("MulAccScalars coefficient %d: got %d, want %d", k, gotB[k], wantB[k])
							}
						}
					})
				})
			}
		}
	}
}

// FuzzNTTRoundTrip fuzzes the NTT over random degrees, limb counts, modulus
// widths and limb data: for each limb every available kernel path must agree
// with the Go path bit for bit on Forward and Inverse, and the composition
// must be the identity on canonical inputs. Limb count and degree derive from
// the fuzz bytes, so the corpus explores the dispatcher's size floor
// (n < asmMinN stays scalar) as well as the vector paths; the width explores
// both sides of the 52-bit dispatch.
func FuzzNTTRoundTrip(f *testing.F) {
	f.Add(uint8(5), uint8(3), int64(1))
	f.Add(uint8(4), uint8(1), int64(99))  // n=16 < asmMinN: scalar path
	f.Add(uint8(8), uint8(6), int64(-17)) // production-ish limb count
	f.Fuzz(func(t *testing.T, logNSel, limbSel uint8, seed int64) {
		logN := 4 + int(logNSel)%6 // 16..512
		limbs := 1 + int(limbSel)%8
		n := 1 << logN
		rng := rand.New(rand.NewSource(seed))
		bits := []int{60, 36, 50, 40}[uint64(seed)%4]
		primes, err := ring.GenerateNTTPrimes(bits, logN, limbs)
		if err != nil {
			t.Skip("not enough NTT primes at this size")
		}
		for _, qv := range primes {
			mod := ring.MustModulus(t, qv)
			tbl, err := ring.NewNTTTable(mod, logN)
			if err != nil {
				t.Fatalf("NewNTTTable: %v", err)
			}
			in := make([]uint64, n)
			for i := range in {
				in[i] = rng.Uint64() % mod.Q
			}
			want := append([]uint64(nil), in...)
			underGo(func() { tbl.Forward(want) })
			kerneltest.EachPath(t, func(t *testing.T) {
				got := append([]uint64(nil), in...)
				tbl.Forward(got)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("q=%d n=%d: forward %s/Go mismatch at %d", qv, n, ring.KernelPath(), i)
					}
				}
				tbl.Inverse(got)
				for i := range got {
					if got[i] != in[i] {
						t.Fatalf("q=%d n=%d: round trip diverges at %d: %d != %d", qv, n, i, got[i], in[i])
					}
				}
			})
		}
	})
}

// TestKernelPathReport prints, at column 0 so `go test -v | grep '^ring:'`
// finds it, the kernel path this build and CPU run on and the differential
// legs that therefore skip: the line a CI log needs to show whether the IFMA
// differentials executed on that runner (see `make kernel-path`).
func TestKernelPathReport(t *testing.T) {
	var skipped []string
	for _, p := range kerneltest.Paths {
		prev := ring.SetKernelPath(p)
		if ring.KernelPath() != p.String() {
			skipped = append(skipped, p.String())
		}
		ring.SetKernelPath(prev)
	}
	fmt.Printf("ring: kernel path %s; differential legs skipped on this build/CPU: %v\n", ring.KernelPath(), skipped)
}
