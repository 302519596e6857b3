package ckks

import (
	"fmt"
	"math"
	"math/big"
	"math/cmplx"

	"github.com/fastfhe/fast/internal/ring"
)

// Plaintext is an encoded message: a single polynomial with an attached
// scale. The polynomial is kept in NTT (evaluation) form, the convention for
// everything that participates in homomorphic products.
type Plaintext struct {
	Value ring.Poly
	Level int
	Scale float64
}

// Encoder maps complex vectors to ring elements through the canonical
// embedding (the "special FFT" over the 2N-th roots of unity restricted to
// the orbit of 5).
type Encoder struct {
	params   *Parameters
	slots    int
	roots    []complex128 // roots[k] = exp(2πik/2N)
	rotGroup []int        // 5^j mod 2N for j < slots
}

// NewEncoder precomputes the embedding tables for the parameter set.
func NewEncoder(params *Parameters) *Encoder {
	return newEncoderSlots(params, params.Slots())
}

// newEncoderSlots is NewEncoder for an explicit slot count (a power of two up
// to N/2) on the same ring. A polynomial the params.Slots()-slot encoder
// produced reads as a periodic vector under a wider encoder: the bootstrapper
// packs two such vectors into one ciphertext that way.
func newEncoderSlots(params *Parameters, slots int) *Encoder {
	n := params.N()
	m := 2 * n
	e := &Encoder{
		params:   params,
		slots:    slots,
		roots:    make([]complex128, m+1),
		rotGroup: make([]int, slots),
	}
	for k := 0; k <= m; k++ {
		angle := 2 * math.Pi * float64(k) / float64(m)
		e.roots[k] = cmplx.Rect(1, angle)
	}
	g := 1
	for j := 0; j < slots; j++ {
		e.rotGroup[j] = g
		g = (g * 5) % m
	}
	return e
}

func bitReverseComplex(vals []complex128) {
	n := len(vals)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			vals[i], vals[j] = vals[j], vals[i]
		}
	}
}

// embed evaluates the inverse special FFT in place: slot values -> embedding
// coefficients.
func (e *Encoder) embed(vals []complex128) {
	n := len(vals)
	m := 2 * e.params.N()
	for length := n; length >= 1; length >>= 1 {
		lenh := length >> 1
		lenq := length << 2
		for i := 0; i < n; i += length {
			for j := 0; j < lenh; j++ {
				idx := (lenq - (e.rotGroup[j] % lenq)) * m / lenq
				u := vals[i+j] + vals[i+j+lenh]
				v := (vals[i+j] - vals[i+j+lenh]) * e.roots[idx]
				vals[i+j] = u
				vals[i+j+lenh] = v
			}
		}
	}
	bitReverseComplex(vals)
	inv := complex(1/float64(n), 0)
	for i := range vals {
		vals[i] *= inv
	}
}

// project evaluates the forward special FFT in place: embedding coefficients
// -> slot values.
func (e *Encoder) project(vals []complex128) {
	n := len(vals)
	m := 2 * e.params.N()
	bitReverseComplex(vals)
	for length := 2; length <= n; length <<= 1 {
		lenh := length >> 1
		lenq := length << 2
		for i := 0; i < n; i += length {
			for j := 0; j < lenh; j++ {
				idx := (e.rotGroup[j] % lenq) * m / lenq
				u := vals[i+j]
				v := vals[i+j+lenh] * e.roots[idx]
				vals[i+j] = u + v
				vals[i+j+lenh] = u - v
			}
		}
	}
}

// EncodeAtLevel encodes values (padded or truncated to the slot count) into
// a fresh plaintext at the given level and scale. The plaintext polynomial
// is returned in NTT form.
func (e *Encoder) EncodeAtLevel(values []complex128, level int, scale float64) (*Plaintext, error) {
	slots := e.slots
	if len(values) > slots {
		return nil, fmt.Errorf("ckks: %d values exceed %d slots: %w", len(values), slots, ErrSlotCountMismatch)
	}
	if level < 0 || level > e.params.MaxLevel() {
		return nil, fmt.Errorf("ckks: level %d out of range [0,%d]: %w", level, e.params.MaxLevel(), ErrLevelMismatch)
	}
	// A non-positive or non-finite scale would encode fine but decode to
	// NaN/Inf (found by FuzzEncodeDecode) — reject it at the boundary.
	if scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		return nil, fmt.Errorf("ckks: invalid encoding scale %g: %w", scale, ErrInvalidValue)
	}
	w := make([]complex128, slots)
	copy(w, values)
	e.embed(w)

	n := e.params.N()
	gap := (n / 2) / slots
	rq := e.params.RingQ().AtLevel(level)
	pt := &Plaintext{Value: rq.NewPoly(), Level: level, Scale: scale}
	var small []int64 // int64 coefficients, tried only at a power-of-two scale
	fits := false
	if frac, _ := math.Frexp(scale); frac == 0.5 {
		small, fits = make([]int64, n), true
	}
	for j := 0; j < slots && fits; j++ {
		var re, im bool
		small[j*gap], re = scaleToInt64(real(w[j]), scale)
		small[j*gap+n/2], im = scaleToInt64(imag(w[j]), scale)
		fits = re && im
	}
	if fits {
		ring.SetSigned(rq, small, pt.Value)
	} else {
		coeffs := make([]*big.Int, n)
		for i := range coeffs {
			coeffs[i] = big.NewInt(0)
		}
		var err error
		for j := 0; j < slots; j++ {
			if coeffs[j*gap], err = scaleToInt(real(w[j]), scale); err != nil {
				return nil, err
			}
			if coeffs[j*gap+n/2], err = scaleToInt(imag(w[j]), scale); err != nil {
				return nil, err
			}
		}
		rq.SetCoeffBigint(coeffs, pt.Value)
	}
	rq.NTT(pt.Value)
	return pt, nil
}

// Encode encodes at the top level with the default scale.
func (e *Encoder) Encode(values []complex128) (*Plaintext, error) {
	return e.EncodeAtLevel(values, e.params.MaxLevel(), e.params.Scale())
}

// scaleToInt64 is scaleToInt where that needs no big value. scale must be a
// power of two: then v*scale is exact in float64, so when it is below 2^63
// in magnitude math.Round's half-away rounding of it is scaleToInt's result.
// ok is false, and c meaningless, for any other product (NaN, ±Inf too).
func scaleToInt64(v, scale float64) (c int64, ok bool) {
	f := v * scale
	return int64(math.Round(f)), math.Abs(f) < 1<<63
}

// scaleToInt converts v*scale to an arbitrary-precision integer, using
// big.Float so scales beyond 2^53/|v| stay exact to the ulp.
func scaleToInt(v, scale float64) (*big.Int, error) {
	f := v * scale
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, fmt.Errorf("ckks: value %g overflows at scale %g: %w", v, scale, ErrInvalidValue)
	}
	bf := new(big.Float).SetPrec(96).SetFloat64(v)
	bf.Mul(bf, new(big.Float).SetPrec(96).SetFloat64(scale))
	i, _ := bf.Int(nil)
	// Round-half-away rather than truncate: add ±0.5 before Int().
	frac := new(big.Float).Sub(bf, new(big.Float).SetInt(i))
	half, _ := frac.Float64()
	if half >= 0.5 {
		i.Add(i, big.NewInt(1))
	} else if half <= -0.5 {
		i.Sub(i, big.NewInt(1))
	}
	return i, nil
}

// Decode recovers the complex slot values of a plaintext.
func (e *Encoder) Decode(pt *Plaintext) []complex128 {
	rq := e.params.RingQ().AtLevel(pt.Level)
	poly := pt.Value.Clone()
	rq.INTT(poly)
	coeffs := make([]*big.Int, e.params.N())
	rq.PolyToBigintCentered(poly, coeffs)

	n := e.params.N()
	slots := e.slots
	gap := (n / 2) / slots
	w := make([]complex128, slots)
	for j := 0; j < slots; j++ {
		re := bigToFloat(coeffs[j*gap]) / pt.Scale
		im := bigToFloat(coeffs[j*gap+n/2]) / pt.Scale
		w[j] = complex(re, im)
	}
	e.project(w)
	return w
}

func bigToFloat(v *big.Int) float64 {
	f, _ := new(big.Float).SetInt(v).Float64()
	return f
}
