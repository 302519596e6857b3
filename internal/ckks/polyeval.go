package ckks

import (
	"fmt"
	"math"
	"math/bits"
)

// Polynomial is a real-coefficient polynomial in the power basis:
// p(x) = Coeffs[0] + Coeffs[1] x + ... .
type Polynomial struct {
	Coeffs []float64
}

// Degree returns the polynomial degree.
func (p Polynomial) Degree() int { return len(p.Coeffs) - 1 }

// Depth returns the multiplicative depth of the BSGS evaluation.
func (p Polynomial) Depth() int {
	d := p.Degree()
	if d < 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(d + 1))))
}

// EvaluatePoly evaluates p on ct with the baby-step/giant-step
// (Paterson–Stockmeyer) strategy: baby powers x^1..x^bs by doubling, giant
// powers x^(bs*2^j) by squaring, inner sums as constant multiplications.
// Multiplicative depth is ~log2(deg) instead of deg. The result carries the
// default scale exactly, whatever the rescale drift along the way.
func (ev *Evaluator) EvaluatePoly(ct *Ciphertext, p Polynomial) (*Ciphertext, error) {
	return ev.evaluatePoly(nil, ct, realCoeffs(p), ev.params.Scale())
}

func realCoeffs(p Polynomial) []complex128 {
	coeffs := make([]complex128, len(p.Coeffs))
	for i, c := range p.Coeffs {
		coeffs[i] = complex(c, 0)
	}
	return coeffs
}

// babyWidth is the baby-step width for a degree: the power of two near
// sqrt(deg+1).
func babyWidth(deg int) int {
	bs := 1
	for bs*bs < deg+1 {
		bs <<= 1
	}
	return bs
}

// polyLevels returns the number of levels evaluatePoly consumes on a
// polynomial of the given degree: the deepest chunk's inner sum (one level
// below the last baby power) followed by its giant products.
func polyLevels(deg int) int {
	if deg < 1 {
		return 0
	}
	bs := babyWidth(deg)
	inner := bits.Len(uint(bs-2)) + 1
	worst := inner
	for g := 1; g*bs <= deg; g++ {
		d := inner
		for j := 0; g>>j != 0; j++ {
			if g&(1<<j) != 0 {
				d = max(d, bits.Len(uint(bs))-1+j) + 1
			}
		}
		worst = max(worst, d)
	}
	return worst
}

// evaluatePoly evaluates sum_k coeffs[k]*ct^k and lands it on the target
// scale. Real polynomials are the case of zero imaginary parts; an imaginary
// part costs one pointwise product per chunk (mulByI), no key-switch.
//
// Scales are exact: a coefficient is not quantised at Δ but at whatever scale
// puts its term on the scale its chunk needs, so the terms of every sum — and
// the chunks of the final one — meet on one identical scale and are added
// with no tolerance (addExact). The bootstrap's angle error is amplified by
// ~2^15 on the way out, so a relative scale mismatch of 1e-6 between two
// summands, well inside what Add accepts, already costs ten bits there.
func (ev *Evaluator) evaluatePoly(cc *cancelCheck, ct *Ciphertext, coeffs []complex128, target float64) (*Ciphertext, error) {
	deg := len(coeffs) - 1
	switch {
	case deg < 0:
		return nil, fmt.Errorf("ckks: empty polynomial")
	case deg == 0:
		return ev.addConstComplex(ev.zeroCiphertext(ct.Level, ct.Scale), coeffs[0])
	case ct.Level < polyLevels(deg):
		return nil, fmt.Errorf("ckks: degree-%d polynomial needs %d levels, ciphertext has %d: %w", deg, polyLevels(deg), ct.Level, ErrLevelExhausted)
	}
	bs := babyWidth(deg)
	qChain := ev.params.qChain

	// pow[i] = ct^i, built with minimal depth:
	// pow[2i] = pow[i]^2, pow[2i+1] = pow[2i]*pow[1].
	pow := make([]*Ciphertext, bs+1)
	pow[1] = ct
	var err error
	for i := 2; i <= bs && i <= deg; i++ {
		if i%2 == 0 {
			pow[i], err = ev.mulRescaleCC(cc, pow[i/2], pow[i/2])
		} else {
			pow[i], err = ev.mulRescaleCC(cc, pow[i-1], pow[1])
		}
		if err != nil {
			return nil, err
		}
	}

	// giant[j] = ct^(bs * 2^j); the first one is the last baby power.
	var giant []*Ciphertext
	for g := bs; g <= deg; g <<= 1 {
		next := pow[bs]
		if len(giant) > 0 {
			last := giant[len(giant)-1]
			if next, err = ev.mulRescaleCC(cc, last, last); err != nil {
				return nil, err
			}
		}
		giant = append(giant, next)
	}

	// p(x) = sum_g inner_g(x) * x^(g*bs): chunk g covers coefficients
	// [g*bs, (g+1)*bs), and x^(g*bs) factors into the giant powers (binary
	// decomposition of g).
	innerLevel := pow[bs-1].Level // bs-1 <= deg for every degree
	var out *Ciphertext
	for g := 0; g*bs <= deg; g++ {
		if err := cc.err("EvaluatePoly"); err != nil {
			return nil, err
		}
		// Walk the chunk's giant products on levels and scales alone: each
		// multiplies the scale by giant.Scale/q, so this is the scale the
		// inner sum must start from for the chunk to end on target.
		level, scale := innerLevel-1, target
		for j, gt := range giant {
			if g&(1<<j) != 0 {
				level = min(level, gt.Level)
				scale *= float64(qChain[level]) / gt.Scale
				level--
			}
		}
		part, err := ev.innerSum(cc, pow, coeffs[g*bs:min((g+1)*bs, deg+1)], innerLevel, scale)
		if err != nil {
			return nil, err
		}
		if part == nil {
			continue
		}
		for j, gt := range giant {
			if g&(1<<j) != 0 {
				if part, err = ev.mulRescaleCC(cc, part, gt); err != nil {
					return nil, err
				}
			}
		}
		if out, err = ev.addExact(out, part); err != nil {
			return nil, err
		}
	}
	if out == nil {
		out = ev.zeroCiphertext(innerLevel-1, target)
	}
	return out, nil
}

// innerSum returns sum_b coeffs[b]*pow[b], computed at the given level and
// rescaled once onto exactly the given scale, or nil when every coefficient
// is zero.
func (ev *Evaluator) innerSum(cc *cancelCheck, pow []*Ciphertext, coeffs []complex128, level int, scale float64) (*Ciphertext, error) {
	pre := scale * float64(ev.params.qChain[level])
	var parts [2]*Ciphertext // the real-coefficient sum and the imaginary one
	for b := 1; b < len(coeffs); b++ {
		if coeffs[b] == 0 {
			continue
		}
		x := pow[b]
		if x.Level > level {
			x = ev.DropLevel(x, x.Level-level)
		}
		for k, c := range [2]float64{real(coeffs[b]), imag(coeffs[b])} {
			if c == 0 {
				continue
			}
			term, err := ev.mulConstAtScale(x, c, pre/x.Scale)
			if err != nil {
				return nil, err
			}
			if parts[k], err = ev.addExact(parts[k], term); err != nil {
				return nil, err
			}
		}
	}
	sum := parts[0]
	if parts[1] != nil {
		im, err := ev.mulByI(parts[1])
		if err != nil {
			return nil, err
		}
		if sum, err = ev.addExact(sum, im); err != nil {
			return nil, err
		}
	}
	if coeffs[0] != 0 {
		if sum == nil {
			sum = ev.zeroCiphertext(level, pre)
		}
		var err error
		if sum, err = ev.addConstComplex(sum, coeffs[0]); err != nil {
			return nil, err
		}
	}
	if sum == nil {
		return nil, nil
	}
	return ev.rescaleCC(cc, sum)
}

// addExact is Add for operands whose scales are equal by construction: a
// relative difference beyond float64 rounding is a scheduling bug, not drift,
// and is refused. A nil a returns b.
func (ev *Evaluator) addExact(a, b *Ciphertext) (*Ciphertext, error) {
	if a == nil {
		return b, nil
	}
	if math.Abs(a.Scale-b.Scale) > 1e-13*math.Max(a.Scale, b.Scale) {
		return nil, fmt.Errorf("ckks: exact-scale sum %w: %g vs %g", ErrScaleMismatch, a.Scale, b.Scale)
	}
	return ev.Add(a, b)
}

func (ev *Evaluator) zeroCiphertext(level int, scale float64) *Ciphertext {
	rq := ev.params.ringQ.AtLevel(level)
	return &Ciphertext{C0: rq.NewPoly(), C1: rq.NewPoly(), Level: level, Scale: scale}
}

// addConstComplex returns ct + c for a complex constant, at ct's scale.
func (ev *Evaluator) addConstComplex(ct *Ciphertext, c complex128) (*Ciphertext, error) {
	out, err := ev.AddConst(ct, real(c))
	if err != nil || imag(c) == 0 {
		return out, err
	}
	im, err := ev.AddConst(ev.zeroCiphertext(ct.Level, ct.Scale), imag(c))
	if err != nil {
		return nil, err
	}
	if im, err = ev.mulByI(im); err != nil {
		return nil, err
	}
	return ev.Add(out, im)
}

// mulRescaleCC multiplies and immediately rescales (the evaluation keeps
// every intermediate near the working scale).
func (ev *Evaluator) mulRescaleCC(cc *cancelCheck, a, b *Ciphertext) (*Ciphertext, error) {
	p, err := ev.mulRelin(cc, a, b, ev.Method())
	if err != nil {
		return nil, err
	}
	return ev.rescaleCC(cc, p)
}
