package fast_test

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"

	fast "github.com/fastfhe/fast"
)

// The random-script suite drives long pseudo-random operation sequences
// through a Context while shadowing every operation on plaintext vectors, and
// holds the decryptions to that shadow: an external oracle, so an answer that
// is consistently wrong under both key-switching backends still fails.
//
// Run it under the race detector with `make chaos` (folded into `make
// check`).

const chaosSeed = 0xFA57

func chaosOps(t testing.TB) int {
	if testing.Short() {
		return 200
	}
	return 1200
}

func chaosConfig() fast.ContextConfig {
	return fast.ContextConfig{
		LogN:        9,
		Levels:      3,
		LogScale:    36,
		Rotations:   []int{1, -1, 4},
		Conjugation: true,
		EnableKLSS:  true,
		Seed:        7,
	}
}

// chaosMaxAbs bounds the slot magnitudes the script keeps in its working set:
// a result whose plaintext shadow exceeds it is replaced by a fresh
// encryption, so repeated Adds cannot walk the message out of q0's headroom
// (14 bits over the scale) and turn the oracle comparison into noise.
const chaosMaxAbs = 8

// runChaosScript executes a deterministic pseudo-random script of nOps
// operations on ctx and returns the decryption of every working-set
// ciphertext next to its plaintext shadow. Each key-switching operation picks
// its backend from methods by a coin the script always tosses, so the script
// — operands, rotations, fresh values — depends only on (seed, nOps), not on
// how many methods are on offer: two contexts built from the same config
// execute identical call sequences, so their sampler draws (and therefore
// their ciphertexts) coincide exactly.
func runChaosScript(t *testing.T, ctx *fast.Context, nOps int, seed int64, methods ...fast.Method) (dec, want [][]complex128) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	slots := ctx.Slots()
	rots := []int{1, -1, 4}

	fresh := func() (*fast.Ciphertext, []complex128) {
		vals := make([]complex128, slots)
		for i := range vals {
			vals[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
		}
		ct, err := ctx.Encrypt(vals)
		if err != nil {
			t.Fatalf("encrypt: %v", err)
		}
		return ct, vals
	}
	// shadow applies f slot-wise; the index lets rotations read a neighbour.
	shadow := func(f func(i int) complex128) []complex128 {
		out := make([]complex128, slots)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	rotated := func(v []complex128, r int) []complex128 {
		return shadow(func(i int) complex128 { return v[((i+r)%slots+slots)%slots] })
	}

	const setSize = 4
	cts := make([]*fast.Ciphertext, setSize)
	pts := make([][]complex128, setSize)
	for i := range cts {
		cts[i], pts[i] = fresh()
	}
	method := func() fast.OpOption {
		return fast.WithMethod(methods[rng.Intn(2)%len(methods)])
	}

	for op := 0; op < nOps; op++ {
		i, j := rng.Intn(setSize), rng.Intn(setSize)
		a, b := pts[i], pts[j]
		var out *fast.Ciphertext
		var pt []complex128
		var err error
		switch k := rng.Intn(10); {
		case k < 2: // Add
			out, err = ctx.Add(cts[i], cts[j])
			pt = shadow(func(s int) complex128 { return a[s] + b[s] })
		case k < 3: // Sub
			out, err = ctx.Sub(cts[i], cts[j])
			pt = shadow(func(s int) complex128 { return a[s] - b[s] })
		case k < 6: // Rotate (key-switch)
			r := rots[rng.Intn(len(rots))]
			out, err = ctx.Rotate(cts[i], r, method())
			pt = rotated(a, r)
		case k < 7: // Conjugate (key-switch)
			out, err = ctx.Conjugate(cts[i], method())
			pt = shadow(func(s int) complex128 { return cmplx.Conj(a[s]) })
		case k < 8: // hoisted rotations (key-switch per rotation)
			var outs map[int]*fast.Ciphertext
			outs, err = ctx.RotateHoisted(cts[i], rots, method())
			r := rots[rng.Intn(len(rots))]
			out, pt = outs[r], rotated(a, r)
		case k < 9: // AddConst
			c := rng.Float64()
			out, err = ctx.AddConst(cts[i], c)
			pt = shadow(func(s int) complex128 { return a[s] + complex(c, 0) })
		default: // Mul (key-switch, consumes a level) or refresh at the bottom
			if min(cts[i].Level(), cts[j].Level()) > 0 {
				out, err = ctx.Mul(cts[i], cts[j], method())
				pt = shadow(func(s int) complex128 { return a[s] * b[s] })
			} else {
				out, pt = fresh()
			}
		}
		if err != nil {
			t.Fatalf("op %d failed: %v", op, err)
		}
		for _, v := range pt {
			if cmplx.Abs(v) > chaosMaxAbs {
				out, pt = fresh()
				break
			}
		}
		k := rng.Intn(setSize)
		cts[k], pts[k] = out, pt
	}

	dec = make([][]complex128, setSize)
	for i, ct := range cts {
		dec[i] = ctx.Decrypt(ct)
	}
	return dec, pts
}

// bitsEqual compares two decrypted vectors bit-for-bit (no tolerance: the
// invariant is exactness, not approximation).
func bitsEqual(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// precisionBits pools every slot of every working-set vector and returns the
// minimum and median of -log2 of the per-slot error (the larger of its real
// and imaginary parts), the two figures of lattigo's precision tables.
func precisionBits(got, want [][]complex128) (minBits, medianBits float64) {
	var bits []float64
	for v := range want {
		for s := range want[v] {
			d := got[v][s] - want[v][s]
			bits = append(bits, -math.Log2(math.Max(math.Abs(real(d)), math.Abs(imag(d)))))
		}
	}
	sort.Float64s(bits)
	return bits[0], bits[len(bits)/2]
}

// chaosMinBits and chaosMedianBits are the checked-in precision floors of
// every row of TestRandomScriptAgainstPlaintext: the lowest figure measured
// over both script lengths (20.59 / 24.48 bits, the -short script's hybrid and
// KLSS rows), less two bits. A change that takes a row below them has cost
// precision; one that lifts every row well clear should raise them with it.
const chaosMinBits, chaosMedianBits = 18.5, 22.4

// TestRandomScriptAgainstPlaintext is the external oracle for the Context's
// operation set: one seeded random script, run with every key-switching
// operation pinned to hybrid, pinned to KLSS, and tossed per operation, each
// decrypted working set held to the plaintext shadow and the two pinned runs
// to each other. The per-operation run is made on two contexts of one config
// and seed, which must agree bit for bit.
func TestRandomScriptAgainstPlaintext(t *testing.T) {
	nOps := chaosOps(t)
	run := func(methods ...fast.Method) (dec, want [][]complex128) {
		ctx, err := fast.NewContext(chaosConfig())
		if err != nil {
			t.Fatal(err)
		}
		return runChaosScript(t, ctx, nOps, chaosSeed, methods...)
	}
	check := func(row string, got, want [][]complex128) {
		minBits, medianBits := precisionBits(got, want)
		t.Logf("%-14s min %.2f median %.2f bits", row, minBits, medianBits)
		if minBits < chaosMinBits || medianBits < chaosMedianBits {
			t.Errorf("%s: precision min %.2f median %.2f bits, floors are %.1f / %.1f",
				row, minBits, medianBits, chaosMinBits, chaosMedianBits)
		}
	}

	hybrid, want := run(fast.Hybrid)
	klss, _ := run(fast.KLSS)
	mixed, _ := run(fast.Hybrid, fast.KLSS)
	again, _ := run(fast.Hybrid, fast.KLSS)

	check("hybrid", hybrid, want)
	check("klss", klss, want)
	check("mixed", mixed, want)
	check("hybrid-vs-klss", hybrid, klss)
	for i := range mixed {
		if !bitsEqual(mixed[i], again[i]) {
			t.Fatalf("decryption %d differs between two contexts of one config, seed and script", i)
		}
	}
}
