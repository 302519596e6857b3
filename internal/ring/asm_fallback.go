//go:build !amd64 || purego

package ring

// Pure-Go fallback: no vectorized kernels compiled in. The dispatch sites in
// ntt.go and bconv.go never take the ASM branch (kernelASMEnabled stays
// false), but the entry points still delegate defensively so a stray call is
// correct rather than a crash.

func cpuSupportsKernels() bool { return false }

func fwdStagesASM(t *NTTTable, a []uint64, n int) { t.forwardStagesGo(a, n) }

func invStagesASM(t *NTTTable, a []uint64, n int) { t.inverseStagesGo(a, n) }

func invLastASM(t *NTTTable, x, y []uint64, lazy bool) {
	mod := t.Mod
	twoQ := mod.Q << 1
	wN, wNs := t.nInv, t.nInvSho
	wL, wLs := t.wLastInv, t.wLastInvSho
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

func shoupMulVecASM(m Modulus, dst, src []uint64, w, ws uint64) {
	shoupMulVecGo(m, dst, src, w, ws)
}

func shoupMulSubVecASM(m Modulus, dst, x, sub []uint64, w, ws uint64) {
	shoupMulSubVecGo(m, dst, x, sub, w, ws)
}

func bconvAccumASM(m Modulus, dst, src []uint64, stride int, ws []uint64) {
	bconvAccumGo(m, dst, src, stride, ws)
}

func bconvShoupASM(m Modulus, dst, src []uint64, stride int, ws, wsSho []uint64) {
	bconvAccumGo(m, dst, src, stride, ws)
}
