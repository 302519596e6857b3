package ring

import (
	"encoding/binary"
	"math/bits"
)

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
	mulAccRowsGo(m, dst, xs, ys, nil, nil, 0)
}

// MulAccScalars sets dst[k] = (Σ_j xs[j][k]·ws[j]) mod q, fully reduced: rows
// scaled by constants and summed — a polynomial's inner sum Σ_b c_b·x^b, one
// output row at a time. Every operand must be fully reduced (< q). It is
// MulAccRows with each ys[j] one word broadcast to every lane (mac52's
// broadcast flag on the 52-bit datapath).
func (m Modulus) MulAccScalars(dst []uint64, xs [][]uint64, ws []uint64) {
	if m.useMAC52(len(dst), m.Q, len(xs)) {
		var yb [16][]uint64
		ys := yb[:0]
		for j := range ws {
			ys = append(ys, ws[j:j+1])
		}
		mac52(m, dst, xs, ys, mac52Broadcast)
		return
	}
	mulAccRowsGo(m, dst, xs, nil, ws, nil, 0)
}

// mulAccRowsGo is the reference for MulAccRows (ys), MulAccScalars (ws) and
// MulAccPackedRows (packed rows ps at b bits), whichever operand is non-nil.
// It walks dst in blocks small enough for the (hi, lo) accumulators to stay
// in L1 across all terms, and adds two terms per pass over a block, so each
// accumulator word is read and written once per pair (an odd last term is
// paired with a zero row). Each pass is a leaf function of its own, which
// keeps the loop's state in registers.
func mulAccRowsGo(m Modulus, dst []uint64, xs, ys [][]uint64, ws []uint64, ps [][]byte, b int) {
	const blk = 128
	var accLo, accHi, zero [blk]uint64
	capTerms := m.AccumCapacity()
	for k0 := 0; k0 < len(dst); k0 += blk {
		w := min(blk, len(dst)-k0)
		lo, hi := accLo[:w], accHi[:w]
		clear(lo)
		clear(hi)
		terms := 0
		for j := 0; j < len(xs); j += 2 {
			if terms+2 > capTerms {
				// Only reachable past 8 digits over 61-bit limbs.
				for t := range lo {
					lo[t], hi[t] = m.Reduce(hi[t], lo[t]), 0
				}
				terms = 1
			}
			j1 := min(j+1, len(xs)-1)
			x0, x1 := xs[j][k0:k0+w], xs[j1][k0:k0+w]
			if j1 == j {
				x1 = zero[:w]
			}
			switch {
			case ws != nil:
				accScalars(lo, hi, x0, x1, ws[j], ws[j1])
			case ps != nil && b == 64:
				accWords(lo, hi, x0, x1, ps[j][8*k0:8*(k0+w)], ps[j1][8*k0:8*(k0+w)])
			case ps != nil:
				accPacked(lo, hi, x0, x1, ps[j], ps[j1], b, k0)
			default:
				accRows(lo, hi, x0, x1, ys[j][k0:k0+w], ys[j1][k0:k0+w])
			}
			terms += 2
		}
		d := dst[k0 : k0+w]
		for t := range d {
			d[t] = m.Reduce(hi[t], lo[t])
		}
	}
}

// acc2 adds the products x0·y0 and x1·y1 to the 128-bit accumulator
// (hi, lo).
func acc2(hi, lo, x0, y0, x1, y1 uint64) (uint64, uint64) {
	h0, l0 := bits.Mul64(x0, y0)
	h1, l1 := bits.Mul64(x1, y1)
	lo, c0 := bits.Add64(lo, l0, 0)
	lo, c1 := bits.Add64(lo, l1, 0)
	return hi + h0 + h1 + c0 + c1, lo
}

// accRows adds x0[t]·y0[t] + x1[t]·y1[t] to the accumulator (hi[t], lo[t]).
func accRows(lo, hi, x0, x1, y0, y1 []uint64) {
	hi, x0, x1 = hi[:len(lo)], x0[:len(lo)], x1[:len(lo)]
	y0, y1 = y0[:len(lo)], y1[:len(lo)]
	for t := range lo {
		hi[t], lo[t] = acc2(hi[t], lo[t], x0[t], y0[t], x1[t], y1[t])
	}
}

// accScalars is accRows with every y0[t] = y0 and y1[t] = y1.
func accScalars(lo, hi, x0, x1 []uint64, y0, y1 uint64) {
	hi, x0, x1 = hi[:len(lo)], x0[:len(lo)], x1[:len(lo)]
	for t := range lo {
		hi[t], lo[t] = acc2(hi[t], lo[t], x0[t], y0, x1[t], y1)
	}
}

// accWords is accRows with y[t] the little-endian word row[8t:8t+8]: packed
// rows at 64 bits, walked a word at a time.
func accWords(lo, hi, x0, x1 []uint64, r0, r1 []byte) {
	hi, x0, x1 = hi[:len(lo)], x0[:len(lo)], x1[:len(lo)]
	r0, r1 = r0[:8*len(lo)], r1[:8*len(lo)]
	for t := range lo {
		y0 := binary.LittleEndian.Uint64(r0[8*t:])
		y1 := binary.LittleEndian.Uint64(r1[8*t:])
		hi[t], lo[t] = acc2(hi[t], lo[t], x0[t], y0, x1[t], y1)
	}
}

// accPacked is accRows with y[t] residue k0+t of a packed row at b bits: the
// 8 bytes from its first bit's byte, shifted to that bit and masked. Both
// rows hold residue k0+t at the same bit.
func accPacked(lo, hi, x0, x1 []uint64, r0, r1 []byte, b, k0 int) {
	hi, x0, x1 = hi[:len(lo)], x0[:len(lo)], x1[:len(lo)]
	mask := uint64(1)<<b - 1
	o := k0 * b
	for t := range lo {
		p, sh := o>>3, o&7
		y0 := binary.LittleEndian.Uint64(r0[p:p+8]) >> sh & mask
		y1 := binary.LittleEndian.Uint64(r1[p:p+8]) >> sh & mask
		o += b
		hi[t], lo[t] = acc2(hi[t], lo[t], x0[t], y0, x1[t], y1)
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
