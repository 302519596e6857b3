package ring

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// byteIdentityModuli are the moduli the sampler and reduction tests pin: 2
// and a power of two (Int63n's mask branch), 36-, 40-, 50- and 60-bit NTT
// primes, and an odd 61-bit modulus that rejects about one draw in sixteen.
func byteIdentityModuli(t *testing.T, logN int) []Modulus {
	ms := []Modulus{mustModulus(t, 2), mustModulus(t, 1<<40)}
	for _, bits := range []int{36, 40, 50, 60} {
		ms = append(ms, FirstPrime(t, bits, logN))
	}
	return append(ms, mustModulus(t, 3<<59|1))
}

// TestUniformPolyMatchesInt63n: UniformPoly draws, value for value, what
// math/rand's Int63n draws from the same stream, over both kinds of source
// (NewSampler's and a stream sampler's PCG), on every kind of modulus.
func TestUniformPolyMatchesInt63n(t *testing.T) {
	const logN = 10
	r := &Ring{N: 1 << logN, LogN: logN, Moduli: byteIdentityModuli(t, logN)}
	for _, src := range []struct {
		name string
		new  func() *Sampler
	}{
		{"math/rand", func() *Sampler { return NewSampler(7) }},
		{"pcg", func() *Sampler { return NewStreamSampler(7, 3) }},
	} {
		s, ref := src.new(), src.new()
		for round := range 2 { // the stream continues across calls
			p := r.NewPoly()
			s.UniformPoly(r, p)
			for i, m := range r.Moduli {
				for j, v := range p.Coeffs[i] {
					if want := uint64(ref.rng.Int63n(int64(m.Q))); v != want {
						t.Fatalf("%s round %d, q = %d, coefficient %d: drew %d, Int63n draws %d", src.name, round, m.Q, j, v, want)
					}
				}
			}
		}
		if a, b := s.rng.Int63(), ref.rng.Int63(); a != b {
			t.Fatalf("%s: the streams part after the draw: %d, %d", src.name, a, b)
		}
	}
}

// TestSetSignedMatchesRemainder: SetSigned writes v mod q, the remainder
// Go's % gives lifted into [0, q), for the values at every edge of its
// paths — 0, ±1, ±(q−1), ±q, ±2^49 (a ModRaise residue into a 40-bit limb),
// ±2^62, the int64 extremes — and a spread of random widths.
func TestSetSignedMatchesRemainder(t *testing.T) {
	const logN = 6
	r := &Ring{N: 1 << logN, LogN: logN, Moduli: byteIdentityModuli(t, logN)}
	rng := rand.New(rand.NewSource(1))
	for _, m := range r.Moduli {
		q := int64(m.Q)
		vals := []int64{0, 1, -1, q - 1, -(q - 1), q, -q, q + 1, -(q + 1), 1 << 49, -(1 << 49),
			1 << 62, -(1 << 62), math.MaxInt64, math.MinInt64 + 1, math.MinInt64}
		for len(vals)%r.N != 0 {
			vals = append(vals, rng.Int63()>>rng.Intn(63)*int64(1-2*rng.Intn(2)))
		}
		for k := 0; k < len(vals); k += r.N {
			chunk := vals[k : k+r.N]
			p := r.NewPoly()
			SetSigned(r, chunk, p)
			for i, m := range r.Moduli {
				for j, v := range chunk {
					want := v % int64(m.Q)
					if want < 0 {
						want += int64(m.Q)
					}
					if p.Coeffs[i][j] != uint64(want) {
						t.Fatalf("SetSigned(%d) mod %d = %d, want %d", v, m.Q, p.Coeffs[i][j], want)
					}
				}
			}
		}
	}
}

// TestSetCoeffBigintInt64Path: coefficients that all fit an int64 take
// SetSigned, and land where big.Int reduction puts them; one coefficient
// just past int64, either side, sends the polynomial down the big.Int path
// (an int64 conversion of it would wrap) and is still reduced exactly.
func TestSetCoeffBigintInt64Path(t *testing.T) {
	const logN = 6
	r := &Ring{N: 1 << logN, LogN: logN, Moduli: byteIdentityModuli(t, logN)}
	rng := rand.New(rand.NewSource(2))
	coeffs := make([]*big.Int, r.N)
	for j := range coeffs {
		coeffs[j] = big.NewInt(rng.Int63() >> rng.Intn(63) * int64(1-2*rng.Intn(2)))
	}
	coeffs[0].SetInt64(math.MinInt64)
	coeffs[1].SetInt64(math.MaxInt64)
	got, want := r.NewPoly(), r.NewPoly()
	r.SetCoeffBigint(coeffs, got)
	r.setCoeffBigintWide(coeffs, want)
	if !got.Equal(want) {
		t.Fatal("the int64 path differs from big.Int reduction")
	}

	past := new(big.Int).Lsh(big.NewInt(1), 63) // MaxInt64 + 1
	for _, c := range []*big.Int{past, new(big.Int).Neg(new(big.Int).Add(past, big.NewInt(1)))} {
		coeffs[2] = c
		r.SetCoeffBigint(coeffs, got)
		for i, m := range r.Moduli {
			want := new(big.Int).Mod(c, new(big.Int).SetUint64(m.Q)).Uint64()
			if got.Coeffs[i][2] != want {
				t.Fatalf("%s mod %d = %d, want %d", c, m.Q, got.Coeffs[i][2], want)
			}
		}
	}
}
