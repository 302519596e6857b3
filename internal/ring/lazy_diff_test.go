package ring

import (
	"math/big"
	"math/rand"
	"testing"
)

// refForward is a textbook Cooley–Tukey negacyclic NTT with a full reduction
// after every butterfly — the correctness reference for the Harvey
// lazy-reduction Forward. It shares the bit-reversed twiddle tables with the
// production kernel so the two computations are stage-by-stage comparable.
func refForward(t *NTTTable, a []uint64) {
	mod := t.Mod
	step := t.N >> 1
	for m := 1; m < t.N; m <<= 1 {
		for i := 0; i < m; i++ {
			w := t.rootsFwd[m+i]
			j1 := 2 * i * step
			for j := j1; j < j1+step; j++ {
				u := a[j]
				v := mod.MulMod(a[j+step], w)
				a[j] = mod.AddMod(u, v)
				a[j+step] = mod.SubMod(u, v)
			}
		}
		step >>= 1
	}
}

// refInverse is the fully-reduced Gentleman–Sande reference, with the 1/N
// scaling applied as a separate final pass (the production kernel folds it
// into the last stage).
func refInverse(t *NTTTable, a []uint64) {
	mod := t.Mod
	step := 1
	for m := t.N >> 1; m >= 1; m >>= 1 {
		for i := 0; i < m; i++ {
			w := t.rootsInv[m+i]
			j1 := 2 * i * step
			for j := j1; j < j1+step; j++ {
				x, y := a[j], a[j+step]
				a[j] = mod.AddMod(x, y)
				a[j+step] = mod.MulMod(mod.SubMod(x, y), w)
			}
		}
		step <<= 1
	}
	for j := range a {
		a[j] = mod.MulMod(a[j], t.nInv)
	}
}

func diffTables(t *testing.T, bitSizes, logNs []int) []*NTTTable {
	t.Helper()
	var out []*NTTTable
	for _, bits := range bitSizes {
		for _, logN := range logNs {
			primes, err := GenerateNTTPrimes(bits, logN, 1)
			if err != nil {
				t.Fatalf("GenerateNTTPrimes(%d,%d): %v", bits, logN, err)
			}
			mod, err := NewModulus(primes[0])
			if err != nil {
				t.Fatalf("NewModulus: %v", err)
			}
			tbl, err := NewNTTTable(mod, logN)
			if err != nil {
				t.Fatalf("NewNTTTable: %v", err)
			}
			out = append(out, tbl)
		}
	}
	return out
}

func randCoeffs(tbl *NTTTable, rng *rand.Rand, bound uint64) []uint64 {
	a := make([]uint64, tbl.N)
	for i := range a {
		a[i] = rng.Uint64() % bound
	}
	return a
}

// TestForwardMatchesReference pins bit-equality of the lazy Forward against
// the fully-reduced reference on random inputs, across 36-bit and 60-bit
// moduli and several transform sizes, and checks the [0, q) output contract.
func TestForwardMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, tbl := range diffTables(t, []int{36, 60}, []int{1, 4, 8, 10}) {
		q := tbl.Mod.Q
		for trial := 0; trial < 5; trial++ {
			a := randCoeffs(tbl, rng, q)
			want := append([]uint64(nil), a...)
			refForward(tbl, want)
			tbl.Forward(a)
			for i := range a {
				if a[i] >= q {
					t.Fatalf("q=%d N=%d: Forward output %d >= q at %d", q, tbl.N, a[i], i)
				}
				if a[i] != want[i] {
					t.Fatalf("q=%d N=%d trial=%d: Forward diverges from reference at %d: %d != %d",
						q, tbl.N, trial, i, a[i], want[i])
				}
			}
		}
	}
}

// TestInverseMatchesReference pins bit-equality of the lazy Inverse (with its
// folded 1/N scaling) against the fully-reduced reference.
func TestInverseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for _, tbl := range diffTables(t, []int{36, 60}, []int{1, 4, 8, 10}) {
		q := tbl.Mod.Q
		for trial := 0; trial < 5; trial++ {
			a := randCoeffs(tbl, rng, q)
			want := append([]uint64(nil), a...)
			refInverse(tbl, want)
			tbl.Inverse(a)
			for i := range a {
				if a[i] >= q {
					t.Fatalf("q=%d N=%d: Inverse output %d >= q at %d", q, tbl.N, a[i], i)
				}
				if a[i] != want[i] {
					t.Fatalf("q=%d N=%d trial=%d: Inverse diverges from reference at %d: %d != %d",
						q, tbl.N, trial, i, a[i], want[i])
				}
			}
		}
	}
}

// TestReduceWordMatchesBigInt checks the one-word Barrett step against
// math/big over the full 64-bit input range, including values far above q.
func TestReduceWordMatchesBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	for _, bits := range []int{36, 60} {
		primes, err := GenerateNTTPrimes(bits, 4, 1)
		if err != nil {
			t.Fatalf("GenerateNTTPrimes: %v", err)
		}
		m, _ := NewModulus(primes[0])
		qB := new(big.Int).SetUint64(m.Q)
		inputs := []uint64{0, 1, m.Q - 1, m.Q, m.Q + 1, 2*m.Q - 1, ^uint64(0)}
		for i := 0; i < 200; i++ {
			inputs = append(inputs, rng.Uint64())
		}
		for _, x := range inputs {
			want := new(big.Int).Mod(new(big.Int).SetUint64(x), qB).Uint64()
			if got := m.ReduceWord(x); got != want {
				t.Fatalf("q=%d: ReduceWord(%d) = %d, want %d", m.Q, x, got, want)
			}
		}
	}
}

// TestMulModShoupLazyCongruent checks the lazy Shoup multiply: for any 64-bit
// x and w < q the result is in [0, 2q) and congruent to x*w mod q.
func TestMulModShoupLazyCongruent(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	for _, bits := range []int{36, 60} {
		primes, err := GenerateNTTPrimes(bits, 4, 1)
		if err != nil {
			t.Fatalf("GenerateNTTPrimes: %v", err)
		}
		m, _ := NewModulus(primes[0])
		qB := new(big.Int).SetUint64(m.Q)
		for i := 0; i < 500; i++ {
			x := rng.Uint64()
			w := rng.Uint64() % m.Q
			ws := m.ShoupPrecomp(w)
			got := m.MulModShoupLazy(x, w, ws)
			if got >= 2*m.Q {
				t.Fatalf("q=%d: MulModShoupLazy(%d,%d) = %d >= 2q", m.Q, x, w, got)
			}
			want := new(big.Int).Mul(new(big.Int).SetUint64(x), new(big.Int).SetUint64(w))
			want.Mod(want, qB)
			if got%m.Q != want.Uint64() {
				t.Fatalf("q=%d: MulModShoupLazy(%d,%d) incongruent", m.Q, x, w)
			}
			// The strict variant must agree bit-for-bit with the congruence.
			if s := m.MulModShoup(x, w, ws); s != want.Uint64() {
				t.Fatalf("q=%d: MulModShoup(%d,%d) = %d, want %d", m.Q, x, w, s, want.Uint64())
			}
		}
	}
}

// TestAccumCapacity checks the accumulator-capacity bound: summing exactly
// AccumCapacity products of (q-1)^2 keeps the 128-bit value below q*2^64
// (hi < q), i.e. within Reduce's documented domain.
func TestAccumCapacity(t *testing.T) {
	for _, bits := range []int{36, 60} {
		primes, err := GenerateNTTPrimes(bits, 4, 1)
		if err != nil {
			t.Fatalf("GenerateNTTPrimes: %v", err)
		}
		m, _ := NewModulus(primes[0])
		c := m.AccumCapacity()
		if c < 1 {
			t.Fatalf("q=%d: AccumCapacity %d < 1", m.Q, c)
		}
		if bits == 60 && c < 8 {
			// The "60-bit" generator primes sit just above 2^60 (61 significant
			// bits), the widest NewModulus accepts — the paper's tunable-bit
			// worst case. The HPS accumulator must still hold >= 8 terms there.
			t.Fatalf("q=%d: 61-significant-bit capacity %d < 8", m.Q, c)
		}
		// c * (q-1)^2 < q * 2^64 must hold (and fail for c+1 only when the
		// bound is tight; we only check the safe direction).
		lhs := new(big.Int).Mul(
			big.NewInt(int64(min(c, 1<<20))), // cap the check for 36-bit's huge capacity
			new(big.Int).Mul(new(big.Int).SetUint64(m.Q-1), new(big.Int).SetUint64(m.Q-1)))
		rhs := new(big.Int).Lsh(new(big.Int).SetUint64(m.Q), 64)
		if lhs.Cmp(rhs) >= 0 {
			t.Fatalf("q=%d: %d products of (q-1)^2 overflow the Reduce domain", m.Q, c)
		}
	}
}
