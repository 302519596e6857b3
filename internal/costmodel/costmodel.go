// Package costmodel quantifies the modular-operation workload and memory
// working set of the two key-switching methods the FAST accelerator
// schedules (paper §3.1, Fig. 2, Fig. 3 and Fig. 11(b)).
//
// Counting convention: every figure is reported in 36-bit modular-operation
// equivalents. A 60-bit modular multiplication counts as 2 because the
// tunable-bit multiplier (TBM) retires either two 36-bit products or one
// 60-bit product per cycle, so a 60-bit op occupies twice the datapath of a
// 36-bit op. This makes the hybrid (36-bit) and KLSS (60-bit) kernels
// directly comparable in accelerator-time terms.
//
// The hybrid formulas are the standard ModUp → KeyMult → ModDown counts and
// can be derived line-by-line from the dataflow in internal/ckks. The KLSS
// formulas follow the double-decomposition dataflow of Fig. 1(b) with the
// structural constants (digit-container size, output-group count, fixed
// pipeline overhead) calibrated so the model reproduces the paper's measured
// behaviour: KLSS saves ~15% of modular operations at levels 25–35, the
// hybrid method saves ~21–24% at levels 5–12, levels 21–24 are mixed, and
// hoisting erodes the KLSS advantage because KeyMult becomes dominant.
package costmodel

import "fmt"

// Method identifies a key-switching method. This is the module's one
// declaration of the enum: ckks.KeySwitchMethod and fast.Method are aliases
// of it, so the planner, the cost model and the kernels share one type. It
// lives here because this package imports nothing from the module, keeping
// the performance layer usable without the functional scheme.
type Method int

const (
	// Hybrid is the 36-bit ModUp/KeyMult/ModDown method.
	Hybrid Method = iota
	// KLSS is the 60-bit double-decomposition method.
	KLSS
)

func (m Method) String() string {
	switch m {
	case Hybrid:
		return "hybrid"
	case KLSS:
		return "klss"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// KernelBits returns the native modulus width of the method's kernels: the
// 60-bit auxiliary chain for KLSS, the 36-bit ciphertext limbs for hybrid.
func (m Method) KernelBits() int {
	if m == KLSS {
		return 60
	}
	return 36
}

// op-weight of a 60-bit modular operation in 36-bit equivalents (one TBM =
// two 36-bit ops or one 60-bit op per cycle).
const weight60 = 2.0

// Params describes a parameter set for workload analysis (paper Table 2).
type Params struct {
	LogN  int // ring degree exponent
	L     int // maximum level (limbs = level+1)
	QBits int // ciphertext limb width (36)

	// Hybrid method.
	Alpha int // limbs per decomposition group (Set-I: 12)

	// KLSS method.
	AlphaKLSS  int // limbs per input group (Set-II: 5)
	AlphaTilde int // 60-bit limbs of the KeyMult accumulator basis
	TBits      int // auxiliary limb width (60)

	// klssFixedNTT models the fixed per-ciphertext pipeline overhead of the
	// double decomposition (twiddle reload + container alignment), in
	// NTT-limb equivalents. Calibrated; see package comment.
	klssFixedNTT float64
}

// SetI returns the paper's Set-I parameters (hybrid-only: N=2^16, L=35,
// alpha=12, 36-bit limbs).
func SetI() Params {
	return Params{LogN: 16, L: 35, QBits: 36, Alpha: 12, AlphaKLSS: 5, AlphaTilde: 7, TBits: 60, klssFixedNTT: 20}
}

// SetII returns the paper's Set-II parameters (hybrid+KLSS). The hybrid side
// of every comparison keeps the Set-I grouping (α=12), exactly as the
// paper's Fig. 2 compares "hybrid with Set-I" against "KLSS with Set-II";
// the Set-II α=5 is the KLSS input group size, stored in AlphaKLSS.
func SetII() Params {
	return SetI()
}

// N returns the ring degree.
func (p Params) N() int { return 1 << uint(p.LogN) }

// nttLimb returns the 36-bit-equivalent modmul count of one N-point NTT pass
// over a single limb: (N/2)·logN butterflies, one mul each.
func (p Params) nttLimb() float64 {
	return float64(p.N()) / 2 * float64(p.LogN)
}

// Breakdown is a per-kernel modular-multiplication count (36-bit
// equivalents), matching the kernel classes of Fig. 2(b): NTT, BConv,
// KeyMult (evk inner products) and Other (element-wise scaling etc.).
type Breakdown struct {
	NTT     float64
	BConv   float64
	KeyMult float64
	Other   float64
}

// Total sums all kernels.
func (b Breakdown) Total() float64 { return b.NTT + b.BConv + b.KeyMult + b.Other }

// Add returns the kernel-wise sum.
func (b Breakdown) Add(o Breakdown) Breakdown {
	return Breakdown{b.NTT + o.NTT, b.BConv + o.BConv, b.KeyMult + o.KeyMult, b.Other + o.Other}
}

// Scale returns the breakdown multiplied by f.
func (b Breakdown) Scale(f float64) Breakdown {
	return Breakdown{b.NTT * f, b.BConv * f, b.KeyMult * f, b.Other * f}
}

// betaHybrid returns the hybrid group count at a level.
func (p Params) betaHybrid(level int) int {
	return (level + p.Alpha) / p.Alpha
}

// betaKLSS returns the KLSS input group count at a level.
func (p Params) betaKLSS(level int) int {
	return (level + p.AlphaKLSS) / p.AlphaKLSS
}

// betaTildeKLSS returns the KLSS output-group (key-column) count at a level.
// Calibrated as ceil((k+3)/8) for k = level+1 limbs.
func (p Params) betaTildeKLSS(level int) int {
	k := level + 1
	return (k + 3 + 7) / 8
}

// HybridKeySwitch returns the modular-operation breakdown of performing
// `hoist` rotations (or one multiplication when hoist==1) that share a
// single decomposition at the given level. hoist=1 is the non-hoisted case.
func (p Params) HybridKeySwitch(level, hoist int) Breakdown {
	if hoist < 1 {
		hoist = 1
	}
	k := level + 1
	kp := p.Alpha
	beta := p.betaHybrid(level)
	n := float64(p.N())
	h := float64(hoist)

	var oneNTT, oneBC float64
	for j := 0; j < beta; j++ {
		size := p.Alpha
		if (j+1)*p.Alpha > k {
			size = k - j*p.Alpha
		}
		oneNTT += float64(k + kp - size)            // forward NTTs of the extended limbs
		oneBC += float64(size+size*(k+kp-size)) * n // scaling + base-table product
	}
	oneNTT += float64(k) // input INTT

	rotNTT := float64(2*(k+kp) + 2*k)   // INTT before ModDown + forward after
	rotBC := float64(2*(kp+kp*k)) * n   // ModDown conversions
	rotKM := float64(2*beta*(k+kp)) * n // gadget inner product
	rotOther := float64(2*k) * n        // ModDown final scaling
	return Breakdown{
		NTT:     (oneNTT + h*rotNTT) * p.nttLimb(),
		BConv:   oneBC + h*rotBC,
		KeyMult: h * rotKM,
		Other:   h * rotOther,
	}
}

// KLSSKeySwitch is the KLSS counterpart of HybridKeySwitch: one double
// decomposition shared by `hoist` rotations. 60-bit kernels are weighted by
// weight60 (see package comment).
func (p Params) KLSSKeySwitch(level, hoist int) Breakdown {
	if hoist < 1 {
		hoist = 1
	}
	k := level + 1
	beta := p.betaKLSS(level)
	btil := p.betaTildeKLSS(level)
	at := p.AlphaTilde
	aK := p.AlphaKLSS
	n := float64(p.N())
	h := float64(hoist)

	// One-time: input INTT (36-bit) + per-group forward NTTs over the
	// 60-bit digit containers + digit conversion + fixed pipeline overhead.
	oneNTT := float64(k)*p.nttLimb() +
		float64(beta*at)*p.nttLimb()*weight60 +
		p.klssFixedNTT*p.nttLimb()*weight60
	oneBC := float64(beta*(aK+aK*at)) * n

	// Per rotation: accumulator INTT (60-bit) + final forward NTT (36-bit),
	// the β×β̃ key inner product at 60 bits, and the recovery conversion
	// back to the Q basis.
	rotNTT := float64(2*at)*p.nttLimb()*weight60 + float64(2*k)*p.nttLimb()
	rotKM := float64(2*beta*btil*at) * n * weight60
	rotBC := float64(2*(at+at*k)) * n
	rotOther := float64(2*k) * n
	return Breakdown{
		NTT:     oneNTT + h*rotNTT,
		BConv:   oneBC + h*rotBC,
		KeyMult: h * rotKM,
		Other:   h * rotOther,
	}
}

// KeySwitch dispatches on the method.
func (p Params) KeySwitch(m Method, level, hoist int) Breakdown {
	if m == KLSS {
		return p.KLSSKeySwitch(level, hoist)
	}
	return p.HybridKeySwitch(level, hoist)
}

// QuantitativeLine returns hybrid_ops/klss_ops at a level (paper Fig. 2(a)):
// values above 1 mean KLSS is the more efficient method.
func (p Params) QuantitativeLine(level, hoist int) float64 {
	return p.HybridKeySwitch(level, hoist).Total() / p.KLSSKeySwitch(level, hoist).Total()
}

// --- Working-set sizes (paper Fig. 3(b), §5.6) ---

// CiphertextBytes returns the packed size of one ciphertext at a level: two
// polynomials of level+1 limbs at QBits bits per coefficient.
func (p Params) CiphertextBytes(level int) int64 {
	return int64(2*(level+1)) * int64(p.N()) * int64(p.QBits) / 8
}

// EvkBytes returns the packed size of one evaluation key at a level.
func (p Params) EvkBytes(m Method, level int) int64 {
	k := level + 1
	switch m {
	case KLSS:
		beta := p.betaKLSS(level)
		btil := p.betaTildeKLSS(level)
		return int64(2*beta*btil*p.AlphaTilde) * int64(p.N()) * int64(p.TBits) / 8
	default:
		beta := p.betaHybrid(level)
		return int64(2*beta*(k+p.Alpha)) * int64(p.N()) * int64(p.QBits) / 8
	}
}

// MovedEvkBytes returns the bytes of one evaluation key that travel from
// HBM: with the on-chip evaluation-key generator (EKG) the uniform part a is
// regenerated from its seed, so only part b, half the key, moves.
func (p Params) MovedEvkBytes(m Method, level int) int64 {
	return p.EvkBytes(m, level) / 2
}

// WorkingSetBytes returns the on-chip working set of a key-switching phase:
// numCT resident ciphertexts plus `hoist` distinct evaluation keys (hoisted
// rotations each need their own rotation key).
func (p Params) WorkingSetBytes(m Method, level, numCT, hoist int) int64 {
	if hoist < 1 {
		hoist = 1
	}
	return int64(numCT)*p.CiphertextBytes(level) + int64(hoist)*p.EvkBytes(m, level)
}
