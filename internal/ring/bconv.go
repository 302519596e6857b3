package ring

import "math/bits"

// Vectorizable per-limb primitives shared by the rns package's BConv /
// ModDown / Rescale kernels. Each method dispatches to the GOARCH-gated
// assembly (see kernels.go) when available — the 52-bit kernels for a Lane52
// modulus on an IFMA host (use52, lane52.go), else the 64-bit AVX2 ones — with
// the pure-Go loops below as the differential reference. Dispatch requires
// aligned lengths (a multiple of 16 / of 4) of at least asmMinVec — always
// true for ring degrees, which are powers of two >= 32 on every production
// parameter set.

// asmMinVec is the minimum vector length routed to the assembly kernels.
const asmMinVec = 16

func vecUseASM(n int) bool { return kernelPath != PathGo && n >= asmMinVec && n%4 == 0 }

// ShoupMulVec sets dst[k] = src[k] * w mod q with a fully reduced result,
// given w's Shoup companion ws. src may be lazily reduced: src[k] < 2q. (The
// 64-bit kernels are exact for any 64-bit src; the 52-bit multiplier is not.)
// dst and src must have equal length and may alias exactly.
func (m Modulus) ShoupMulVec(dst, src []uint64, w, ws uint64) {
	switch {
	case m.use52(len(dst)):
		shoupMulVec52(m, dst, src, w, ws)
	case vecUseASM(len(dst)):
		shoupMulVecASM(m, dst, src, w, ws)
	default:
		shoupMulVecGo(m, dst, src, w, ws)
	}
}

func shoupMulVecGo(m Modulus, dst, src []uint64, w, ws uint64) {
	n := len(dst)
	src = src[:n]
	var k int
	for ; k+4 <= n; k += 4 {
		d := dst[k : k+4 : k+4]
		s := src[k : k+4 : k+4]
		d[0] = m.MulModShoup(s[0], w, ws)
		d[1] = m.MulModShoup(s[1], w, ws)
		d[2] = m.MulModShoup(s[2], w, ws)
		d[3] = m.MulModShoup(s[3], w, ws)
	}
	for ; k < n; k++ {
		dst[k] = m.MulModShoup(src[k], w, ws)
	}
}

// ShoupMulSubVec sets dst[k] = (x[k] + 2q - sub[k]) * w mod q, the fused lazy
// subtract-multiply at the heart of ModDown and Rescale. Requires x[k] < 2q
// and sub[k] < 2q so the lazy difference stays below 4q < 2^63; the result is
// fully reduced. dst may alias x or sub exactly.
func (m Modulus) ShoupMulSubVec(dst, x, sub []uint64, w, ws uint64) {
	switch {
	case m.use52(len(dst)):
		shoupMulSubVec52(m, dst, x, sub, w, ws)
	case vecUseASM(len(dst)):
		shoupMulSubVecASM(m, dst, x, sub, w, ws)
	default:
		shoupMulSubVecGo(m, dst, x, sub, w, ws)
	}
}

func shoupMulSubVecGo(m Modulus, dst, x, sub []uint64, w, ws uint64) {
	n := len(dst)
	x = x[:n]
	sub = sub[:n]
	twoQ := m.Q << 1
	var k int
	for ; k+4 <= n; k += 4 {
		d := dst[k : k+4 : k+4]
		xw := x[k : k+4 : k+4]
		sw := sub[k : k+4 : k+4]
		d[0] = m.MulModShoup(xw[0]+twoQ-sw[0], w, ws)
		d[1] = m.MulModShoup(xw[1]+twoQ-sw[1], w, ws)
		d[2] = m.MulModShoup(xw[2]+twoQ-sw[2], w, ws)
		d[3] = m.MulModShoup(xw[3]+twoQ-sw[3], w, ws)
	}
	for ; k < n; k++ {
		dst[k] = m.MulModShoup(x[k]+twoQ-sub[k], w, ws)
	}
}

// ShoupMulSubForeignVec sets dst[k] = (x[k] - (y[k] mod q)) * w mod q, fully
// reduced, where y holds residues of ANOTHER modulus: any values below yBound.
// This is Rescale's per-limb step (y is the dropped top limb). Requires
// x[k] < 2q. The 52-bit kernel takes it when y fits the multiplier
// (yBound <= 2^52): it reduces y with one Barrett step before the fused
// subtract-multiply. The 64-bit path is the scalar loop.
func (m Modulus) ShoupMulSubForeignVec(dst, x, y []uint64, yBound, w, ws uint64) {
	if m.use52(len(dst)) && yBound <= lane52Bound {
		shoupMulSubVec52(m, dst, x, y, w, ws)
		return
	}
	n := len(dst)
	x, y = x[:n], y[:n]
	twoQ := m.Q << 1
	for k := range dst {
		// ReduceWord is a one-word Barrett step (no hardware division); the
		// subtraction is lazy (x < 2q, v < q, so x + 2q - v < 4q) and the
		// Shoup multiply, exact for any 64-bit operand, fully reduces.
		v := m.ReduceWord(y[k])
		dst[k] = m.MulModShoup(x[k]+twoQ-v, w, ws)
	}
}

// ReduceForeignVec sets dst[k] ≡ y[k] (mod q) with dst[k] < 2q — the input
// range of NTTTable.Forward — where y holds residues of ANOTHER modulus: any
// values below yBound. It is how RescaleNTT carries the dropped limb into each
// remaining one. Rows below 2q already are copied; wider ones are fully
// reduced by a Shoup multiply by one, on the 52-bit kernel when yBound fits its
// multiplier (the 64-bit kernels take any 64-bit word). dst may alias y
// exactly.
func (m Modulus) ReduceForeignVec(dst, y []uint64, yBound uint64) {
	n := len(dst)
	y = y[:n]
	switch {
	case yBound <= m.Q<<1:
		copy(dst, y)
	case m.use52(n) && yBound <= lane52Bound:
		shoupMulVec52(m, dst, y, 1, m.ShoupPrecomp(1))
	case vecUseASM(n):
		shoupMulVecASM(m, dst, y, 1, m.ShoupPrecomp(1))
	default:
		for k := range dst {
			dst[k] = m.ReduceWord(y[k])
		}
	}
}

// BConvAccum computes the HPS base-conversion inner product over an
// arena-backed source: dst[k] = (Σ_i src[i*stride + k] * ws[i]) mod q, with
// 128-bit accumulation and ONE Barrett reduction per output coefficient. The
// source rows live at stride offsets in one contiguous slice (row i is
// src[i*stride : i*stride+len(dst)]). Callers must keep len(ws) within
// m.AccumCapacity(); longer bases fold through an intermediate reduction at a
// higher level (see rns.Convert). Source values may be lazily reduced;
// srcBound is their exclusive upper bound (residues of other moduli), which
// together with len(ws) decides whether the 52-bit multiply-accumulate can
// take the sum (mac52Fits).
func (m Modulus) BConvAccum(dst, src []uint64, stride int, ws []uint64, srcBound uint64) {
	switch {
	case m.useMAC52(len(dst), srcBound, len(ws)):
		bconv52(m, dst, src, stride, ws)
	case vecUseASM(len(dst)):
		bconvAccumASM(m, dst, src, stride, ws)
	default:
		bconvAccumGo(m, dst, src, stride, ws)
	}
}

// bconvShoupMaxTerms is the source-base width at which, on the 64-bit AVX2
// path, the per-term lazy-Shoup kernel stops beating the 128-bit accumulator:
// each Shoup term costs ~1.5x a schoolbook MAC term but skips the ~60-op
// vector Barrett tail, so the crossover sits near six terms. The 52-bit path
// has no such crossover: a term is two instructions and the tail fifteen.
const bconvShoupMaxTerms = 6

// BConvAccumShoup is BConvAccum with precomputed Shoup companions for the
// weights (wsSho[i] = m.ShoupPrecomp(ws[i])). The result is bit-identical to
// BConvAccum — both produce the fully reduced mod-q inner product — but for
// short bases (len(ws) <= 6) the vector path reduces each term to [0, 2q)
// with an exact lazy Shoup multiply and folds the running sum by 2q, skipping
// the 128-bit accumulator and its Barrett tail entirely. Longer bases and the
// pure-Go path fall back to the accumulating kernel, so the same
// AccumCapacity contract applies; the 52-bit path ignores the companions.
func (m Modulus) BConvAccumShoup(dst, src []uint64, stride int, ws, wsSho []uint64, srcBound uint64) {
	n := len(dst)
	if vecUseASM(n) && len(ws) <= bconvShoupMaxTerms && !m.useMAC52(n, srcBound, len(ws)) {
		bconvShoupASM(m, dst, src, stride, ws, wsSho)
		return
	}
	m.BConvAccum(dst, src, stride, ws, srcBound)
}

// bconvAccumGo unrolls the common small source-base widths (the α-limb ModUp
// groups and the 2–4 limb special chains) with hoisted row windows so the
// inner loop carries no slice-of-slice indirection or bounds checks.
func bconvAccumGo(m Modulus, dst, src []uint64, stride int, ws []uint64) {
	n := len(dst)
	switch len(ws) {
	case 1:
		r0, w0 := src[:n], ws[0]
		for k := range dst {
			hi, lo := bits.Mul64(r0[k], w0)
			dst[k] = m.Reduce(hi, lo)
		}
	case 2:
		r0, r1 := src[:n], src[stride:stride+n]
		w0, w1 := ws[0], ws[1]
		for k := range dst {
			h0, l0 := bits.Mul64(r0[k], w0)
			h1, l1 := bits.Mul64(r1[k], w1)
			lo, c := bits.Add64(l0, l1, 0)
			dst[k] = m.Reduce(h0+h1+c, lo)
		}
	case 3:
		r0, r1, r2 := src[:n], src[stride:stride+n], src[2*stride:2*stride+n]
		w0, w1, w2 := ws[0], ws[1], ws[2]
		_ = r2[n-1] // bounds hint: the prover tracks only the first two rows
		for k := range dst {
			h0, l0 := bits.Mul64(r0[k], w0)
			h1, l1 := bits.Mul64(r1[k], w1)
			h2, l2 := bits.Mul64(r2[k], w2)
			lo, c := bits.Add64(l0, l1, 0)
			hi := h0 + h1 + c
			lo, c = bits.Add64(lo, l2, 0)
			dst[k] = m.Reduce(hi+h2+c, lo)
		}
	case 4:
		r0, r1 := src[:n], src[stride:stride+n]
		r2, r3 := src[2*stride:2*stride+n], src[3*stride:3*stride+n]
		w0, w1, w2, w3 := ws[0], ws[1], ws[2], ws[3]
		_, _ = r2[n-1], r3[n-1] // bounds hint: the prover tracks only the first two rows
		for k := range dst {
			h0, l0 := bits.Mul64(r0[k], w0)
			h1, l1 := bits.Mul64(r1[k], w1)
			h2, l2 := bits.Mul64(r2[k], w2)
			h3, l3 := bits.Mul64(r3[k], w3)
			loA, cA := bits.Add64(l0, l1, 0)
			hiA := h0 + h1 + cA
			loB, cB := bits.Add64(l2, l3, 0)
			hiB := h2 + h3 + cB
			lo, c := bits.Add64(loA, loB, 0)
			dst[k] = m.Reduce(hiA+hiB+c, lo)
		}
	default:
		l := len(ws)
		for k := range dst {
			var accHi, accLo uint64
			for i := 0; i < l; i++ {
				ph, pl := bits.Mul64(src[i*stride+k], ws[i])
				var c uint64
				accLo, c = bits.Add64(accLo, pl, 0)
				accHi += ph + c
			}
			dst[k] = m.Reduce(accHi, accLo)
		}
	}
}

// AddVec sets dst[k] = a[k] + b[k] mod q and subVec dst[k] = a[k] - b[k] mod q
// for fully reduced a, b; a == nil makes subVec a negation. One add/sub and
// one min (or sign blend) per lane, for any modulus width: the kernels serve
// both datapaths. The Go loops are the reference.
func (m Modulus) AddVec(dst, a, b []uint64) {
	n := len(dst)
	a, b = a[:n], b[:n]
	if vecUseASM(n) && n%8 == 0 {
		addVecASM(m, dst, a, b)
		return
	}
	for k := range dst {
		dst[k] = m.AddMod(a[k], b[k])
	}
}

func (m Modulus) subVec(dst, a, b []uint64) {
	n := len(dst)
	b = b[:n]
	if vecUseASM(n) && n%8 == 0 {
		if a != nil {
			a = a[:n]
		}
		subVecASM(m, dst, a, b)
		return
	}
	if a == nil {
		for k := range dst {
			dst[k] = m.NegMod(b[k])
		}
		return
	}
	a = a[:n]
	for k := range dst {
		dst[k] = m.SubMod(a[k], b[k])
	}
}
