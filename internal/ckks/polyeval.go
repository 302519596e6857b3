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
	return ev.evaluatePoly(nil, ct, realCoeffs(p), ev.params.Scale(), heapResult)
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
// scale, into a result per mode. Real polynomials are the case of zero
// imaginary parts; an imaginary part costs one pointwise product per chunk
// (mulByI), no key-switch.
//
// Scales are exact: a coefficient is not quantised at Δ but at whatever scale
// puts its term on the scale its chunk needs, so the terms of every sum — and
// the chunks of the final one — meet on one identical scale and are added
// with no tolerance (addExact). The bootstrap's angle error is amplified by
// ~2^15 on the way out, so a relative scale mismatch of 1e-6 between two
// summands, well inside what Add accepts, already costs ten bits there.
//
// Every power, chunk and partial sum is pooled and recycled here; ct is the
// caller's and only read.
func (ev *Evaluator) evaluatePoly(cc *cancelCheck, ct *Ciphertext, coeffs []complex128, target float64, mode resultMode) (*Ciphertext, error) {
	deg := len(coeffs) - 1
	switch {
	case deg < 0:
		return nil, fmt.Errorf("ckks: empty polynomial")
	case deg == 0:
		zero := ev.zeroCiphertext(ct.Level, ct.Scale)
		out, err := ev.addConstComplex(zero, coeffs[0])
		ev.recycle(zero)
		if err != nil {
			return nil, err
		}
		return ev.export(out, mode), nil
	case ct.Level < polyLevels(deg):
		return nil, fmt.Errorf("ckks: degree-%d polynomial needs %d levels, ciphertext has %d: %w", deg, polyLevels(deg), ct.Level, ErrLevelExhausted)
	}
	bs := babyWidth(deg)
	qChain := ev.params.qChain

	// pow[i] = ct^i, built with minimal depth:
	// pow[2i] = pow[i]^2, pow[2i+1] = pow[2i]*pow[1].
	pow := make([]*Ciphertext, bs+1)
	pow[1] = ct
	// giant[j] = ct^(bs * 2^j); the first one is the last baby power.
	var giant []*Ciphertext
	defer func() {
		ev.recycle(pow[2:]...)
		if len(giant) > 1 {
			ev.recycle(giant[1:]...)
		}
	}()
	var err error
	for i := 2; i <= bs && i <= deg; i++ {
		if i%2 == 0 {
			pow[i], err = ev.mulRescaleCC(cc, pow[i/2], pow[i/2], poolResult)
		} else {
			pow[i], err = ev.mulRescaleCC(cc, pow[i-1], pow[1], poolResult)
		}
		if err != nil {
			return nil, err
		}
	}
	for g := bs; g <= deg; g <<= 1 {
		next := pow[bs]
		if len(giant) > 0 {
			last := giant[len(giant)-1]
			if next, err = ev.mulRescaleCC(cc, last, last, poolResult); err != nil {
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
			ev.recycle(out)
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
			ev.recycle(out)
			return nil, err
		}
		if part == nil {
			continue
		}
		for j, gt := range giant {
			if g&(1<<j) != 0 {
				next, err := ev.mulRescaleCC(cc, part, gt, poolResult)
				ev.recycle(part)
				if err != nil {
					ev.recycle(out)
					return nil, err
				}
				part = next
			}
		}
		if out == nil {
			out = part
			continue
		}
		sum, err := ev.addExact(out, part, poolResult)
		ev.recycle(out, part)
		if err != nil {
			return nil, err
		}
		out = sum
	}
	if out == nil {
		out = ev.zeroCiphertext(innerLevel-1, target)
	}
	return ev.export(out, mode), nil
}

// innerSum returns sum_b coeffs[b]*pow[b], computed at the given level and
// rescaled once onto exactly the given scale, or nil when every coefficient
// is zero. The real-coefficient terms are one multiply-accumulate and the
// imaginary ones another (mulConstSum); the result is pooled.
func (ev *Evaluator) innerSum(cc *cancelCheck, pow []*Ciphertext, coeffs []complex128, level int, scale float64) (*Ciphertext, error) {
	pre := scale * float64(ev.params.qChain[level])
	// Per part (real, imaginary): the powers, their coefficients and the
	// scales that land each term on pre.
	var xs [2][]*Ciphertext
	var cs, constScales [2][]float64
	for b := 1; b < len(coeffs); b++ {
		if coeffs[b] == 0 {
			continue
		}
		x := pow[b].view(level)
		for k, c := range [2]float64{real(coeffs[b]), imag(coeffs[b])} {
			if c != 0 {
				xs[k] = append(xs[k], x)
				cs[k] = append(cs[k], c)
				constScales[k] = append(constScales[k], pre/x.Scale)
			}
		}
	}
	var parts [2]*Ciphertext
	defer func() { ev.recycle(parts[:]...) }()
	for k := range parts {
		if len(xs[k]) == 0 {
			continue
		}
		var err error
		if parts[k], err = ev.mulConstSum(xs[k], cs[k], constScales[k], poolResult); err != nil {
			return nil, err
		}
	}
	var sum *Ciphertext
	switch {
	case parts[1] == nil:
		sum, parts[0] = parts[0], nil
	default:
		im, err := ev.mulByI(parts[1], poolResult)
		if err != nil {
			return nil, err
		}
		if parts[0] == nil {
			sum = im
			break
		}
		sum, err = ev.addExact(parts[0], im, poolResult)
		ev.recycle(im)
		if err != nil {
			return nil, err
		}
	}
	if coeffs[0] != 0 {
		if sum == nil {
			sum = ev.zeroCiphertext(level, pre)
		}
		next, err := ev.addConstComplex(sum, coeffs[0])
		ev.recycle(sum)
		if err != nil {
			return nil, err
		}
		sum = next
	}
	if sum == nil {
		return nil, nil
	}
	out, err := ev.rescaleCC(cc, sum, poolResult)
	ev.recycle(sum)
	return out, err
}

// addExact is Add for operands whose scales are equal by construction, into
// a result per mode: a relative difference beyond float64 rounding is a
// scheduling bug, not drift, and is refused.
func (ev *Evaluator) addExact(a, b *Ciphertext, mode resultMode) (*Ciphertext, error) {
	if !exactScale(a.Scale, b.Scale) {
		return nil, fmt.Errorf("ckks: exact-scale sum %w: %g vs %g", ErrScaleMismatch, a.Scale, b.Scale)
	}
	return ev.addSub(a, b, false, mode)
}

// exactScale reports whether two scales that are equal by construction are,
// to float64 rounding.
func exactScale(a, b float64) bool {
	return math.Abs(a-b) <= 1e-13*math.Max(a, b)
}

// zeroCiphertext returns a pooled, zeroed ciphertext.
func (ev *Evaluator) zeroCiphertext(level int, scale float64) *Ciphertext {
	return &Ciphertext{C0: ev.pool.GetZero(level + 1), C1: ev.pool.GetZero(level + 1), Level: level, Scale: scale}
}

// addConstComplex returns ct + c for a complex constant, at ct's scale,
// pooled.
func (ev *Evaluator) addConstComplex(ct *Ciphertext, c complex128) (*Ciphertext, error) {
	out, err := ev.addConst(ct, real(c), poolResult)
	if err != nil || imag(c) == 0 {
		return out, err
	}
	zero := ev.zeroCiphertext(ct.Level, ct.Scale)
	im, err := ev.addConst(zero, imag(c), poolResult)
	ev.recycle(zero)
	if err != nil {
		ev.recycle(out)
		return nil, err
	}
	iIm, err := ev.mulByI(im, poolResult)
	ev.recycle(im)
	if err != nil {
		ev.recycle(out)
		return nil, err
	}
	sum, err := ev.addSub(out, iIm, false, poolResult)
	ev.recycle(out, iIm)
	return sum, err
}

// mulRescaleCC multiplies and immediately rescales (the evaluation keeps
// every intermediate near the working scale), into a result per mode.
func (ev *Evaluator) mulRescaleCC(cc *cancelCheck, a, b *Ciphertext, mode resultMode) (*Ciphertext, error) {
	p, err := ev.mulRelin(cc, a, b, Hybrid, poolResult)
	return ev.rescaled(cc, mode, p, err)
}
