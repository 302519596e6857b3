package ring

// Vectorized kernel dispatch. The hot inner loops (NTT butterfly stages with
// stride >= 4, Shoup multiply vectors, the BConv accumulate) have
// GOARCH-gated assembly implementations selected once at init via CPU feature
// detection; the pure-Go loops in ntt.go / bconv.go are the differential-test
// reference and the only implementation under `-tags purego` or on
// architectures without kernels.
//
// Per-arch files provide cpuSupportsKernels plus the fwdStagesASM /
// invStagesASM / invLastASM / shoupMulVec / shoupMulSubVec / bconvAccumASM
// entry points:
//
//	asm_amd64.go/.s   AVX2 kernels  (amd64 && !purego)
//	asm_fallback.go   Go fallback   (!amd64 || purego)

// kernelASMEnabled gates the assembly kernels. It is set once at package init
// from CPU feature detection and only ever toggled by SetKernelASM in tests.
var kernelASMEnabled = cpuSupportsKernels()

// HasKernelASM reports whether the vectorized kernels are compiled in and the
// CPU supports them.
func HasKernelASM() bool { return cpuSupportsKernels() }

// KernelASMEnabled reports whether the vectorized kernels are currently
// selected.
func KernelASMEnabled() bool { return kernelASMEnabled }

// SetKernelASM toggles the vectorized kernels and returns the previous
// setting. It exists for differential tests that compare the assembly and
// pure-Go paths on the same inputs; it is NOT synchronized, so call it only
// while no ring kernels run concurrently (test setup/teardown). Enabling has
// no effect when the kernels are not compiled in or the CPU lacks the
// required features.
func SetKernelASM(on bool) (prev bool) {
	prev = kernelASMEnabled
	kernelASMEnabled = on && cpuSupportsKernels()
	return prev
}
