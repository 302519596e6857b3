//go:build amd64 && !purego

package ring

// Kernel entry points and CPU feature detection for amd64. The raw assembly
// routines live in asm_amd64.s (AVX2, 64-bit lanes) and asm_ifma_amd64.s
// (AVX-512 IFMA, 52-bit lanes); this file holds the thin Go shims the
// dispatch sites in ntt.go / bconv.go / lane52.go / ring.go call. Build with
// `-tags purego` to compile the pure-Go reference instead (asm_fallback.go).

// detectKernelPath reads the three registers kernelPathFor decodes. XGETBV
// itself faults unless the OS set OSXSAVE, so XCR0 reads as 0 without it.
func detectKernelPath() Path {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return PathGo
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	var xcr0 uint32
	if ecx1&cpuidOSXSAVE != 0 {
		xcr0, _ = xgetbv()
	}
	return kernelPathFor(ecx1, ebx7, xcr0)
}

const (
	cpuidOSXSAVE    = 1 << 27 // leaf 1 ECX
	cpuidAVX        = 1 << 28 // leaf 1 ECX
	cpuidAVX2       = 1 << 5  // leaf 7 EBX
	cpuidAVX512F    = 1 << 16 // leaf 7 EBX
	cpuidAVX512IFMA = 1 << 21 // leaf 7 EBX

	xcr0AVX    = 0x06 // XMM + YMM state
	xcr0AVX512 = 0xe6 // + opmask, ZMM0-15 upper halves, ZMM16-31
)

// kernelPathFor decodes CPUID leaf 1 ECX, leaf 7 (subleaf 0) EBX and XCR0
// into the highest kernel path that cannot fault: an instruction set counts
// only when the CPU advertises it AND the OS saves the register state it
// touches. The IFMA kernels use AVX512F and AVX512IFMA only (no DQ/VL/BW
// forms), on top of the AVX2 kernels wider moduli keep using.
func kernelPathFor(ecx1, ebx7, xcr0 uint32) Path {
	if ecx1&cpuidOSXSAVE == 0 || ecx1&cpuidAVX == 0 || xcr0&xcr0AVX != xcr0AVX || ebx7&cpuidAVX2 == 0 {
		return PathGo
	}
	if ebx7&cpuidAVX512F != 0 && ebx7&cpuidAVX512IFMA != 0 && xcr0&xcr0AVX512 == xcr0AVX512 {
		return PathAVX512IFMA
	}
	return PathAVX2
}

// fwdStagesASM runs the Cooley–Tukey stages with butterfly stride >= 4 (the
// first stage m=1 down to step=4) through the AVX2 stage kernel. Stage m
// reads twiddles rootsFwd[m..2m); the kernel walks them in order.
func fwdStagesASM(t *NTTTable, a []uint64, n int) {
	q := t.Mod.Q
	step := n >> 1
	nttFwdStageAVX2(&a[0], 1, step, &t.rootsFwd[1], &t.rootsFwdSho[1], q)
	for m := 2; m <= n>>3; m <<= 1 {
		step >>= 1
		nttFwdStageAVX2(&a[0], m, step, &t.rootsFwd[m], &t.rootsFwdSho[m], q)
	}
}

// invStagesASM runs the Gentleman–Sande stages with butterfly stride >= 4
// (m = n/8 down to 2, step = 4 up to n/4) through the AVX2 stage kernel.
func invStagesASM(t *NTTTable, a []uint64, n int) {
	q := t.Mod.Q
	step := 4
	for m := n >> 3; m >= 2; m >>= 1 {
		nttInvStageAVX2(&a[0], m, step, &t.rootsInv[m], &t.rootsInvSho[m], q)
		step <<= 1
	}
}

// invLastASM runs the final Gentleman–Sande stage: one vector pass forming
// the sum/difference legs (x+y, x+2q-y; both < 4q, which the Shoup multiply
// tolerates), then one Shoup multiply pass per leg with the 1/N-folded
// twiddles.
func invLastASM(t *NTTTable, x, y []uint64, lazy bool) {
	q := t.Mod.Q
	half := len(x)
	nttInvCombineAVX2(&x[0], &y[0], half, q)
	full := uint64(1)
	if lazy {
		full = 0
	}
	shoupMulVecAVX2(&x[0], &x[0], half, t.nInv, t.nInvSho, q, full)
	shoupMulVecAVX2(&y[0], &y[0], half, t.wLastInv, t.wLastInvSho, q, full)
}

// fwd52 is the whole forward transform on the 52-bit datapath (n >= 32):
// strides n/2 .. 8 one stage kernel call each, then strides 4, 2, 1 and the
// normalisation to [0, q) fused in registers.
func fwd52(t *NTTTable, a []uint64, n int) {
	q := t.Mod.Q
	step := n >> 1
	for m := 1; m <= n>>4; m <<= 1 {
		nttFwdStageIFMA(&a[0], m, step, &t.rootsFwd[m], &t.rootsFwdSho[m], q)
		step >>= 1
	}
	nttFwdTailIFMA(&a[0], n, &t.rootsFwd[0], &t.rootsFwdSho[0], q)
}

// inv52 is the whole inverse transform on the 52-bit datapath (n >= 32), the
// mirror of fwd52; the last stage carries the 1/N scaling and leaves [0, 2q)
// when lazy, [0, q) otherwise.
func inv52(t *NTTTable, a []uint64, n int, lazy bool) {
	q := t.Mod.Q
	nttInvHeadIFMA(&a[0], n, &t.rootsInv[0], &t.rootsInvSho[0], q)
	step := 8
	for m := n >> 4; m >= 2; m >>= 1 {
		nttInvStageIFMA(&a[0], m, step, &t.rootsInv[m], &t.rootsInvSho[m], q)
		step <<= 1
	}
	full := uint64(1)
	if lazy {
		full = 0
	}
	half := n >> 1
	nttInvLastIFMA(&a[0], &a[half], half, t.nInv, t.nInvSho, t.wLastInv, t.wLastInvSho, q, full)
}

func shoupMulVecASM(m Modulus, dst, src []uint64, w, ws uint64) {
	shoupMulVecAVX2(&dst[0], &src[0], len(dst), w, ws, m.Q, 1)
}

func shoupMulSubVecASM(m Modulus, dst, x, sub []uint64, w, ws uint64) {
	shoupMulSubVecAVX2(&dst[0], &x[0], &sub[0], len(dst), w, ws, m.Q)
}

func shoupMulVec52(m Modulus, dst, src []uint64, w, ws uint64) {
	shoupMulVecIFMA(&dst[0], &src[0], len(dst), w, ws, m.Q)
}

func shoupMulSubVec52(m Modulus, dst, x, sub []uint64, w, ws uint64) {
	shoupMulSubVecIFMA(&dst[0], &x[0], &sub[0], len(dst), w, ws, m.Q, m.lane52[1])
}

// mac52 is the shim of the 52-bit multiply-accumulate. Row lengths are
// checked here: the assembly trusts them.
func mac52(m Modulus, dst []uint64, xs, ys [][]uint64, flags uint64) {
	n := len(dst)
	for j := range xs {
		_ = xs[j][n-1]
		if flags&mac52Broadcast == 0 {
			_ = ys[j][n-1]
		}
	}
	mac52IFMA(&dst[0], n, &xs[0], &ys[0], len(xs), flags, &m.lane52)
}

func bconvAccumASM(m Modulus, dst, src []uint64, stride int, ws []uint64) {
	bconvAccumAVX2(&dst[0], &src[0], len(dst), stride, len(ws), &ws[0], m.Q, m.brc[0], m.brc[1])
}

func bconvShoupASM(m Modulus, dst, src []uint64, stride int, ws, wsSho []uint64) {
	bconvShoupAVX2(&dst[0], &src[0], len(dst), stride, len(ws), &ws[0], &wsSho[0], m.Q)
}

// addVecASM / subVecASM pick the widest add/sub kernel of the path in use.
// a == nil makes subVecASM a negation.
func addVecASM(m Modulus, dst, a, b []uint64) {
	if kernelPath == PathAVX512IFMA {
		addVecAVX512(&dst[0], &a[0], &b[0], len(dst), m.Q)
		return
	}
	addVecAVX2(&dst[0], &a[0], &b[0], len(dst), m.Q)
}

func subVecASM(m Modulus, dst, a, b []uint64) {
	var ap *uint64
	if a != nil {
		ap = &a[0]
	}
	if kernelPath == PathAVX512IFMA {
		subVecAVX512(&dst[0], ap, &b[0], len(dst), m.Q)
		return
	}
	subVecAVX2(&dst[0], ap, &b[0], len(dst), m.Q)
}

// Raw assembly routines. AVX2 (asm_amd64.s): vector lengths are multiples of
// 4 (8 for add/sub). IFMA / AVX-512 (asm_ifma_amd64.s): multiples of 8 (16 for
// the fused NTT stages and mac52). The dispatch layer guarantees both.

//go:noescape
func nttFwdStageAVX2(p *uint64, m, step int, roots, rootsSho *uint64, q uint64)

//go:noescape
func nttInvStageAVX2(p *uint64, m, step int, roots, rootsSho *uint64, q uint64)

//go:noescape
func nttInvCombineAVX2(x, y *uint64, n int, q uint64)

//go:noescape
func shoupMulVecAVX2(dst, src *uint64, n int, w, ws, q, full uint64)

//go:noescape
func shoupMulSubVecAVX2(dst, x, sub *uint64, n int, w, ws, q uint64)

//go:noescape
func bconvAccumAVX2(dst, src *uint64, n, stride, l int, ws *uint64, q, brc0, brc1 uint64)

//go:noescape
func bconvShoupAVX2(dst, src *uint64, n, stride, l int, ws, wsSho *uint64, q uint64)

//go:noescape
func addVecAVX2(dst, a, b *uint64, n int, q uint64)

//go:noescape
func subVecAVX2(dst, a, b *uint64, n int, q uint64)

//go:noescape
func nttFwdStageIFMA(p *uint64, m, step int, roots, rootsSho *uint64, q uint64)

//go:noescape
func nttFwdTailIFMA(p *uint64, n int, roots, rootsSho *uint64, q uint64)

//go:noescape
func nttInvHeadIFMA(p *uint64, n int, roots, rootsSho *uint64, q uint64)

//go:noescape
func nttInvStageIFMA(p *uint64, m, step int, roots, rootsSho *uint64, q uint64)

//go:noescape
func nttInvLastIFMA(x, y *uint64, n int, wN, wNs, wL, wLs, q, full uint64)

//go:noescape
func shoupMulVecIFMA(dst, src *uint64, n int, w, ws, q uint64)

//go:noescape
func shoupMulSubVecIFMA(dst, x, sub *uint64, n int, w, ws, q, m52 uint64)

//go:noescape
func mac52IFMA(dst *uint64, n int, xs, ys *[]uint64, l int, flags uint64, c *[4]uint64)

//go:noescape
func addVecAVX512(dst, a, b *uint64, n int, q uint64)

//go:noescape
func subVecAVX512(dst, a, b *uint64, n int, q uint64)

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
