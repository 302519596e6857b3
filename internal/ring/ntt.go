package ring

import "fmt"

// NTTTable holds the precomputed twiddle factors for the negacyclic NTT of
// degree N over one prime modulus. Twiddles are powers of a primitive 2N-th
// root of unity ψ, stored in bit-reversed order together with their Shoup
// companions so every butterfly costs one multiplication-high plus two
// multiplication-lows and no division.
//
// Both transforms use Harvey lazy-reduction butterflies: the forward
// (Cooley–Tukey) pass keeps coefficients in [0, 4q) across stages with a
// single conditional fold per butterfly, the inverse (Gentleman–Sande) pass
// keeps them in [0, 2q), and only the final stage normalizes to [0, q). The
// 61-bit modulus cap (MaxModulusBits) guarantees every lazy intermediate,
// including u + 2q - v, stays below 2^63.
//
// The stage loops are split by butterfly stride: stages with step >= 4 run
// through fwdBlock/invBlock (4-way unrolled, bounds-check-free windows, and
// the layer the AVX2 assembly replaces — see asm_amd64.go), while the
// step == 2, step == 1 and final stages have dedicated scalar loops. On the
// 52-bit datapath (Lane52 moduli on an IFMA host) the whole transform, every
// stride, runs in assembly instead and these loops are its reference: it keeps
// coefficients in [0, 2q) in both directions and meets the same [0, q) /
// [0, 2q) output contracts. It reads the same twiddle tables — the 52-bit
// Shoup companion floor(w·2^52/q) is the top 52 bits of the 2^64 one.
type NTTTable struct {
	Mod  Modulus
	N    int
	logN int

	psi     uint64 // primitive 2N-th root of unity mod q
	psiInv  uint64 // psi^-1 mod q
	nInv    uint64 // N^-1 mod q
	nInvSho uint64

	// wLastInv = rootsInv[1] * nInv mod q: the last Gentleman–Sande stage has
	// a single twiddle, so the 1/N scaling is folded into it (and applied via
	// nInv on the sum outputs), saving a full normalization pass.
	wLastInv, wLastInvSho uint64

	// rootsFwd[brv(i)] = ψ^i for the Cooley–Tukey forward pass,
	// rootsInv[brv(i)] = ψ^{-i} for the Gentleman–Sande inverse pass.
	rootsFwd, rootsFwdSho []uint64
	rootsInv, rootsInvSho []uint64
}

// NewNTTTable precomputes the twiddle tables for degree N = 2^logN and the
// given modulus. The modulus must satisfy q ≡ 1 (mod 2N).
func NewNTTTable(mod Modulus, logN int) (*NTTTable, error) {
	n := 1 << uint(logN)
	m := uint64(2 * n)
	if (mod.Q-1)%m != 0 {
		return nil, fmt.Errorf("ring: modulus %d is not 1 mod 2N (N=%d)", mod.Q, n)
	}
	g, err := primitiveRoot(mod)
	if err != nil {
		return nil, err
	}
	psi := mod.PowMod(g, (mod.Q-1)/m)
	// ψ must have exact order 2N: g is a generator so this holds, but verify.
	if mod.PowMod(psi, uint64(n)) == 1 {
		return nil, fmt.Errorf("ring: root order check failed for modulus %d", mod.Q)
	}
	t := &NTTTable{
		Mod:    mod,
		N:      n,
		logN:   logN,
		psi:    psi,
		psiInv: mod.InvMod(psi),
		nInv:   mod.InvMod(uint64(n)),
	}
	t.nInvSho = mod.ShoupPrecomp(t.nInv)

	t.rootsFwd = make([]uint64, n)
	t.rootsInv = make([]uint64, n)
	t.rootsFwdSho = make([]uint64, n)
	t.rootsInvSho = make([]uint64, n)
	fw, iv := uint64(1), uint64(1)
	for i := 0; i < n; i++ {
		j := bitReverse(uint64(i), logN)
		t.rootsFwd[j] = fw
		t.rootsInv[j] = iv
		t.rootsFwdSho[j] = mod.ShoupPrecomp(fw)
		t.rootsInvSho[j] = mod.ShoupPrecomp(iv)
		fw = mod.MulMod(fw, psi)
		iv = mod.MulMod(iv, t.psiInv)
	}
	if n > 1 {
		t.wLastInv = mod.MulMod(t.rootsInv[1], t.nInv)
		t.wLastInvSho = mod.ShoupPrecomp(t.wLastInv)
	}
	return t, nil
}

// bitReverse reverses the low `bits` bits of v.
func bitReverse(v uint64, bits int) uint64 {
	var r uint64
	for i := 0; i < bits; i++ {
		r = (r << 1) | (v & 1)
		v >>= 1
	}
	return r
}

// asmMinN is the smallest transform size routed to the assembly kernels: below
// it the wide stages are too short to fill a vector lane and the call overhead
// dominates.
const asmMinN = 32

// kernel returns the path a size-n transform over this table's modulus takes:
// the path in use, except that a modulus too wide for the 52-bit lanes stays
// on the 64-bit AVX2 kernels and short transforms stay in Go.
func (t *NTTTable) kernel(n int) Path {
	if n < asmMinN {
		return PathGo
	}
	if kernelPath == PathAVX512IFMA && !t.Mod.Lane52() {
		return PathAVX2
	}
	return kernelPath
}

// Forward transforms a (coefficient representation, length N) into the NTT
// evaluation representation, in place, using Harvey lazy Cooley–Tukey
// butterflies. Inputs may be in [0, 2q) (fully reduced inputs are the common
// case); outputs are fully reduced in [0, q). Internally coefficients travel
// in [0, 4q): each butterfly folds its even-leg input once (u >= 2q → u-2q),
// lazily multiplies the odd leg into [0, 2q), and emits u+v and u+2q-v. The
// last stage fuses the final normalization, so no separate reduction pass
// runs. The output ordering is the standard bit-reversed NTT ordering used
// consistently across this package.
func (t *NTTTable) Forward(a []uint64) {
	mod := t.Mod
	q := mod.Q
	twoQ := q << 1
	n := t.N
	a = a[:n:n]
	if n == 1 {
		if a[0] >= twoQ {
			a[0] -= twoQ
		}
		if a[0] >= q {
			a[0] -= q
		}
		return
	}
	if n > 2 {
		// Stages with step >= 4: first stage (m=1, step=n/2) down to step=4.
		switch t.kernel(n) {
		case PathAVX512IFMA:
			fwd52(t, a, n)
			return
		case PathAVX2:
			fwdStagesASM(t, a, n)
		default:
			t.forwardStagesGo(a, n)
		}
		if n >= 8 {
			t.fwdStage2(a, n)
		}
	}
	t.fwdLastStage(a, n)
}

// forwardStagesGo runs the Cooley–Tukey stages with butterfly stride >= 4:
// the first stage (m=1) and every middle stage down to step=4, keeping
// coefficients in [0, 4q). This is the differential reference for
// fwdStagesASM.
func (t *NTTTable) forwardStagesGo(a []uint64, n int) {
	mod := t.Mod
	twoQ := mod.Q << 1
	step := n >> 1
	fwdBlock(mod, a[:step:step], a[step:n:n], t.rootsFwd[1], t.rootsFwdSho[1], twoQ)
	for m := 2; m <= n>>3; m <<= 1 {
		step >>= 1
		roots := t.rootsFwd[m : 2*m : 2*m]
		rootsSho := t.rootsFwdSho[m : 2*m : 2*m]
		for i := 0; i < m; i++ {
			j1 := 2 * i * step
			fwdBlock(mod, a[j1:j1+step:j1+step], a[j1+step:j1+2*step:j1+2*step], roots[i], rootsSho[i], twoQ)
		}
	}
}

// fwdBlock runs len(x) Cooley–Tukey butterflies sharing one twiddle over the
// equal-length windows x (even leg) and y (odd leg): fold x into [0, 2q),
// lazily multiply y, emit u+v / u+2q-v. 4-way unrolled over fixed-size
// sub-windows so the compiler drops the per-element bounds checks (verified
// with -gcflags=-d=ssa/check_bce). The fold is a no-op on first-stage inputs
// (< 2q by contract), so the same block serves every stage.
func fwdBlock(mod Modulus, x, y []uint64, w, ws, twoQ uint64) {
	step := len(x)
	y = y[:step]
	var j int
	for ; j+4 <= step; j += 4 {
		xw := x[j : j+4 : j+4]
		yw := y[j : j+4 : j+4]
		u0, u1, u2, u3 := xw[0], xw[1], xw[2], xw[3]
		if u0 >= twoQ {
			u0 -= twoQ
		}
		if u1 >= twoQ {
			u1 -= twoQ
		}
		if u2 >= twoQ {
			u2 -= twoQ
		}
		if u3 >= twoQ {
			u3 -= twoQ
		}
		v0 := mod.MulModShoupLazy(yw[0], w, ws)
		v1 := mod.MulModShoupLazy(yw[1], w, ws)
		v2 := mod.MulModShoupLazy(yw[2], w, ws)
		v3 := mod.MulModShoupLazy(yw[3], w, ws)
		xw[0] = u0 + v0
		xw[1] = u1 + v1
		xw[2] = u2 + v2
		xw[3] = u3 + v3
		yw[0] = u0 + twoQ - v0
		yw[1] = u1 + twoQ - v1
		yw[2] = u2 + twoQ - v2
		yw[3] = u3 + twoQ - v3
	}
	for ; j < step; j++ {
		u := x[j]
		if u >= twoQ {
			u -= twoQ
		}
		v := mod.MulModShoupLazy(y[j], w, ws)
		x[j] = u + v
		y[j] = u + twoQ - v
	}
}

// fwdStage2 is the step=2 Cooley–Tukey stage (m = n/4): each twiddle covers
// one aligned 4-coefficient block, butterflies (0,2) and (1,3).
func (t *NTTTable) fwdStage2(a []uint64, n int) {
	mod := t.Mod
	twoQ := mod.Q << 1
	m := n >> 2
	roots := t.rootsFwd[m : 2*m : 2*m]
	rootsSho := t.rootsFwdSho[m : 2*m : 2*m]
	for i := 0; i < m; i++ {
		w, ws := roots[i], rootsSho[i]
		blk := a[4*i : 4*i+4 : 4*i+4]
		u0, u1 := blk[0], blk[1]
		if u0 >= twoQ {
			u0 -= twoQ
		}
		if u1 >= twoQ {
			u1 -= twoQ
		}
		v0 := mod.MulModShoupLazy(blk[2], w, ws)
		v1 := mod.MulModShoupLazy(blk[3], w, ws)
		blk[0] = u0 + v0
		blk[1] = u1 + v1
		blk[2] = u0 + twoQ - v0
		blk[3] = u1 + twoQ - v1
	}
}

// fwdLastStage is the step=1 Cooley–Tukey stage (m = n/2), specialized to
// fuse the [0,4q) → [0,q) normalization of both butterfly legs.
func (t *NTTTable) fwdLastStage(a []uint64, n int) {
	mod := t.Mod
	q := mod.Q
	twoQ := q << 1
	m := n >> 1
	roots := t.rootsFwd[m : 2*m : 2*m]
	rootsSho := t.rootsFwdSho[m : 2*m : 2*m]
	for i := 0; i < m; i++ {
		blk := a[2*i : 2*i+2 : 2*i+2]
		u := blk[0]
		if u >= twoQ {
			u -= twoQ
		}
		v := mod.MulModShoupLazy(blk[1], roots[i], rootsSho[i])
		x := u + v
		y := u + twoQ - v
		if x >= twoQ {
			x -= twoQ
		}
		if x >= q {
			x -= q
		}
		if y >= twoQ {
			y -= twoQ
		}
		if y >= q {
			y -= q
		}
		blk[0] = x
		blk[1] = y
	}
}

// Inverse transforms a from the NTT evaluation representation back to
// coefficients, in place (Gentleman–Sande), including the 1/N scaling which
// is folded into the final stage. Inputs may be in [0, 2q); outputs are fully
// reduced in [0, q). Internally coefficients stay in [0, 2q) across stages:
// the sum leg folds once per butterfly and the difference leg re-enters
// [0, 2q) through the lazy Shoup multiply.
func (t *NTTTable) Inverse(a []uint64) {
	t.inverse(a, false)
}

// InverseLazy is Inverse with the final normalization elided: outputs are in
// [0, 2q) (still scaled by 1/N and congruent to the exact inverse transform).
// Use it when the consumer tolerates lazy inputs — e.g. the accumulating
// BConv source rows and the ModDown subtraction path — to skip one
// conditional per coefficient.
func (t *NTTTable) InverseLazy(a []uint64) {
	t.inverse(a, true)
}

func (t *NTTTable) inverse(a []uint64, lazy bool) {
	if t.kernel(t.N) == PathAVX512IFMA {
		inv52(t, a[:t.N:t.N], t.N, lazy)
		return
	}
	t.inverseStages(a)
	t.inverseLastStage(a, lazy)
}

// inverseStages runs every Gentleman–Sande stage except the last, keeping
// coefficients in [0, 2q): the step=1 and step=2 stages in dedicated scalar
// loops, then the step>=4 stages through invBlock (or the assembly kernels).
func (t *NTTTable) inverseStages(a []uint64) {
	n := t.N
	a = a[:n:n]
	if n >= 4 {
		t.invStage1(a, n)
	}
	if n >= 8 {
		t.invStage2(a, n)
	}
	if n >= 16 {
		if t.kernel(n) == PathAVX2 {
			invStagesASM(t, a, n)
		} else {
			t.inverseStagesGo(a, n)
		}
	}
}

// inverseStagesGo runs the Gentleman–Sande stages with butterfly stride >= 4,
// m = n/8 down to 2 (step = 4 up to n/4). This is the differential reference
// for invStagesASM.
func (t *NTTTable) inverseStagesGo(a []uint64, n int) {
	mod := t.Mod
	twoQ := mod.Q << 1
	step := 4
	for m := n >> 3; m >= 2; m >>= 1 {
		roots := t.rootsInv[m : 2*m : 2*m]
		rootsSho := t.rootsInvSho[m : 2*m : 2*m]
		for i := 0; i < m; i++ {
			j1 := 2 * i * step
			invBlock(mod, a[j1:j1+step:j1+step], a[j1+step:j1+2*step:j1+2*step], roots[i], rootsSho[i], twoQ)
		}
		step <<= 1
	}
}

// invBlock runs len(x) Gentleman–Sande butterflies sharing one twiddle over
// the equal-length windows x (sum leg) and y (difference leg), keeping both
// legs in [0, 2q). 4-way unrolled with fixed-size sub-windows for
// bounds-check elimination, like fwdBlock.
func invBlock(mod Modulus, x, y []uint64, w, ws, twoQ uint64) {
	step := len(x)
	y = y[:step]
	var j int
	for ; j+4 <= step; j += 4 {
		xw := x[j : j+4 : j+4]
		yw := y[j : j+4 : j+4]
		x0, x1, x2, x3 := xw[0], xw[1], xw[2], xw[3]
		y0, y1, y2, y3 := yw[0], yw[1], yw[2], yw[3]
		s0 := x0 + y0
		s1 := x1 + y1
		s2 := x2 + y2
		s3 := x3 + y3
		if s0 >= twoQ {
			s0 -= twoQ
		}
		if s1 >= twoQ {
			s1 -= twoQ
		}
		if s2 >= twoQ {
			s2 -= twoQ
		}
		if s3 >= twoQ {
			s3 -= twoQ
		}
		xw[0] = s0
		xw[1] = s1
		xw[2] = s2
		xw[3] = s3
		yw[0] = mod.MulModShoupLazy(x0+twoQ-y0, w, ws)
		yw[1] = mod.MulModShoupLazy(x1+twoQ-y1, w, ws)
		yw[2] = mod.MulModShoupLazy(x2+twoQ-y2, w, ws)
		yw[3] = mod.MulModShoupLazy(x3+twoQ-y3, w, ws)
	}
	for ; j < step; j++ {
		x0, y0 := x[j], y[j]
		s := x0 + y0
		if s >= twoQ {
			s -= twoQ
		}
		x[j] = s
		y[j] = mod.MulModShoupLazy(x0+twoQ-y0, w, ws)
	}
}

// invStage1 is the step=1 Gentleman–Sande stage (m = n/2): adjacent pairs,
// one twiddle per butterfly.
func (t *NTTTable) invStage1(a []uint64, n int) {
	mod := t.Mod
	twoQ := mod.Q << 1
	m := n >> 1
	roots := t.rootsInv[m : 2*m : 2*m]
	rootsSho := t.rootsInvSho[m : 2*m : 2*m]
	for i := 0; i < m; i++ {
		blk := a[2*i : 2*i+2 : 2*i+2]
		x, y := blk[0], blk[1]
		s := x + y
		if s >= twoQ {
			s -= twoQ
		}
		blk[0] = s
		blk[1] = mod.MulModShoupLazy(x+twoQ-y, roots[i], rootsSho[i])
	}
}

// invStage2 is the step=2 Gentleman–Sande stage (m = n/4): each twiddle
// covers one aligned 4-coefficient block, butterflies (0,2) and (1,3).
func (t *NTTTable) invStage2(a []uint64, n int) {
	mod := t.Mod
	twoQ := mod.Q << 1
	m := n >> 2
	roots := t.rootsInv[m : 2*m : 2*m]
	rootsSho := t.rootsInvSho[m : 2*m : 2*m]
	for i := 0; i < m; i++ {
		w, ws := roots[i], rootsSho[i]
		blk := a[4*i : 4*i+4 : 4*i+4]
		x0, x1, y0, y1 := blk[0], blk[1], blk[2], blk[3]
		s0 := x0 + y0
		s1 := x1 + y1
		if s0 >= twoQ {
			s0 -= twoQ
		}
		if s1 >= twoQ {
			s1 -= twoQ
		}
		blk[0] = s0
		blk[1] = s1
		blk[2] = mod.MulModShoupLazy(x0+twoQ-y0, w, ws)
		blk[3] = mod.MulModShoupLazy(x1+twoQ-y1, w, ws)
	}
}

// inverseLastStage runs the final Gentleman–Sande stage (m=1) with the 1/N
// scaling folded into its twiddles: the sum leg is multiplied by nInv, the
// difference leg by rootsInv[1]*nInv. With lazy=false the Shoup multiplies
// fully reduce (outputs < q); with lazy=true they stay in [0, 2q).
func (t *NTTTable) inverseLastStage(a []uint64, lazy bool) {
	mod := t.Mod
	q := mod.Q
	twoQ := q << 1
	n := t.N
	if n == 1 {
		// nInv = 1; just normalize the contract.
		if a[0] >= q && !lazy {
			a[0] = mod.ReduceWord(a[0])
		}
		return
	}
	half := n >> 1
	wN, wNs := t.nInv, t.nInvSho
	wL, wLs := t.wLastInv, t.wLastInvSho
	x := a[:half:half]
	y := a[half:n:n]
	if t.kernel(n) == PathAVX2 {
		invLastASM(t, x, y, lazy)
		return
	}
	if lazy {
		for j := range x {
			x0, y0 := x[j], y[j]
			x[j] = mod.MulModShoupLazy(x0+y0, wN, wNs)
			y[j] = mod.MulModShoupLazy(x0+twoQ-y0, wL, wLs)
		}
		return
	}
	for j := range x {
		x0, y0 := x[j], y[j]
		x[j] = mod.MulModShoup(x0+y0, wN, wNs)
		y[j] = mod.MulModShoup(x0+twoQ-y0, wL, wLs)
	}
}
