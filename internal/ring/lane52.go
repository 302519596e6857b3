package ring

import "math/bits"

// The 52-bit datapath: the CPU analogue of the accelerator's tunable-bit
// multiplier. AVX-512 IFMA multiplies 52-bit lanes natively, eight at a time,
// so a modulus narrow enough for those lanes runs every hot kernel (NTT,
// Shoup vectors, the multiply-accumulate behind KeyMult, BConv and MulCoeffs)
// on them, while wider moduli — the 60-bit KLSS chain — stay on the 64-bit
// kernels. The choice is made per modulus, from q alone:
//
//	Lane52:  2q <= 2^52
//
// because every value the 52-bit kernels hold between steps, and hence every
// multiplier input, is a lazily reduced residue in [0, 2q) (asm_ifma_amd64.s
// has the primitives and their bounds). Kernels that read residues of OTHER
// moduli (BConv, Rescale) additionally need those below 2^52; they take the
// source bound as an argument and mac52Fits is the whole predicate.

// lane52Bound is the exclusive input bound of the 52-bit multiplier.
const lane52Bound = uint64(1) << 52

// mac52MaxTerms caps the terms of one multiply-accumulate: each adds at most
// 2^52-1 to a 64-bit lane (plus one addend below q), so 2^12-1 cannot
// overflow it.
const mac52MaxTerms = 1<<12 - 1

// Lane52 reports whether q is narrow enough for the 52-bit datapath. It is a
// property of the modulus, not of the CPU: whether the datapath is actually
// in use is KernelPath's business.
func (m Modulus) Lane52() bool { return m.lane52[0] != 0 }

func lane52Constants(q uint64) [4]uint64 {
	if 2*q > lane52Bound {
		return [4]uint64{}
	}
	m52 := lane52Bound / q
	c52 := lane52Bound - m52*q
	c52s, _ := bits.Div64(c52>>12, c52<<52, q) // floor(c52·2^52 / q)
	return [4]uint64{q, m52, c52, c52s}
}

// mac52Fits reports whether a sum of `terms` products x·y with x < xBound and
// y < q (plus one addend below q) can run on the 52-bit multiply-accumulate:
// q is a Lane52 modulus, x fits the multiplier, no lane overflows, and the
// sum stays below 2^104 so its high half is itself a valid multiplier input
// for the single fold that finishes the reduction.
func (m Modulus) mac52Fits(xBound uint64, terms int) bool {
	if !m.Lane52() || xBound > lane52Bound || terms < 1 || terms > mac52MaxTerms {
		return false
	}
	hi, lo := bits.Mul64(xBound-1, m.Q-1)
	perTerm := hi<<12 | lo>>52 // floor(max product / 2^52) < 2^51
	return uint64(terms)*(perTerm+1)+1 < lane52Bound
}

// use52 reports whether a length-n vector over m runs on the 52-bit kernels.
func (m Modulus) use52(n int) bool {
	return kernelPath == PathAVX512IFMA && m.Lane52() && n >= asmMinVec && n%16 == 0
}

// useMAC52 is use52 for the multiply-accumulate: the sum must also fit.
func (m Modulus) useMAC52(n int, xBound uint64, terms int) bool {
	return m.use52(n) && m.mac52Fits(xBound, terms)
}

// MulAccRows sets dst[k] = (Σ_j xs[j][k]·ys[j][k]) mod q, fully reduced — the
// β-digit gadget inner product of KeyMult, one output row at a time. Every
// operand must be fully reduced (< q). On the 52-bit datapath the whole sum is
// two multiply-adds per term and one fold; elsewhere it is a 128-bit
// accumulate with one Barrett reduction per coefficient, folding early only
// past AccumCapacity terms.
func (m Modulus) MulAccRows(dst []uint64, xs, ys [][]uint64) {
	if m.useMAC52(len(dst), m.Q, len(xs)) {
		mac52(m, dst, xs, ys, 0)
		return
	}
	mulAccRowsGo(m, dst, xs, ys)
}

// mulAccRowsGo is the reference for MulAccRows. It walks dst in blocks small
// enough for the (hi, lo) accumulators to stay in L1 across all terms.
func mulAccRowsGo(m Modulus, dst []uint64, xs, ys [][]uint64) {
	const blk = 128
	var accLo, accHi [blk]uint64
	capTerms := m.AccumCapacity()
	for k0 := 0; k0 < len(dst); k0 += blk {
		w := min(blk, len(dst)-k0)
		lo, hi := accLo[:w], accHi[:w]
		clear(lo)
		clear(hi)
		terms := 0
		for j := range xs {
			if terms == capTerms {
				// Only reachable past 8 digits over 61-bit limbs.
				for t := range lo {
					lo[t], hi[t] = m.Reduce(hi[t], lo[t]), 0
				}
				terms = 1
			}
			x, y := xs[j][k0:k0+w], ys[j][k0:k0+w]
			for t := range lo {
				ph, pl := bits.Mul64(x[t], y[t])
				var c uint64
				lo[t], c = bits.Add64(lo[t], pl, 0)
				hi[t] += ph + c
			}
			terms++
		}
		d := dst[k0 : k0+w]
		for t := range d {
			d[t] = m.Reduce(hi[t], lo[t])
		}
	}
}

// mac52 flag bits (see mac52IFMA).
const (
	mac52Broadcast = 1 // ys[j] is one word, broadcast
	mac52AddDst    = 2 // accumulate onto dst
)

// bconv52 runs the BConv inner product on the 52-bit multiply-accumulate:
// strided source rows times broadcast weights.
func bconv52(m Modulus, dst, src []uint64, stride int, ws []uint64) {
	n := len(dst)
	var xb, yb [16][]uint64
	xs, ys := xb[:0], yb[:0]
	for i := range ws {
		xs = append(xs, src[i*stride:i*stride+n])
		ys = append(ys, ws[i:i+1])
	}
	mac52(m, dst, xs, ys, mac52Broadcast)
}
