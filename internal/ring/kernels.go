package ring

// Vectorized kernel dispatch. The hot inner loops (NTT butterfly stages, Shoup
// multiply vectors, the BConv / KeyMult multiply-accumulate, modular add/sub)
// have GOARCH-gated assembly implementations; the pure-Go loops in ntt.go /
// bconv.go / lane52.go are the differential-test reference and the only
// implementation under `-tags purego` or on architectures without kernels.
//
// There are three paths, ordered; a process runs on the highest one its CPU
// supports, chosen once at init by CPU feature detection:
//
//	go          the reference loops
//	avx2        4-lane 64-bit kernels, every 64x64 product emulated
//	avx512ifma  8-lane 52-bit kernels for moduli with 2q <= 2^52 (lane52.go);
//	            wider moduli keep the avx2 kernels
//
// Per-arch files provide detectKernelPath plus the kernel entry points:
//
//	asm_amd64.go, asm_amd64.s       avx2        (amd64 && !purego)
//	asm_amd64.go, asm_ifma_amd64.s  avx512ifma  (amd64 && !purego)
//	asm_fallback.go                 go only     (!amd64 || purego)

// Path names a kernel path. Paths are ordered: a higher path implies every
// lower one is also available.
type Path uint8

const (
	PathGo Path = iota
	PathAVX2
	PathAVX512IFMA
)

func (p Path) String() string {
	switch p {
	case PathAVX2:
		return "avx2"
	case PathAVX512IFMA:
		return "avx512ifma"
	}
	return "go"
}

// detectedPath is the highest path this build and CPU support; kernelPath is
// the one in use. They differ only while a test has lowered it.
var (
	detectedPath = detectKernelPath()
	kernelPath   = detectedPath
)

// KernelPath names the kernel path in use: "go", "avx2" or "avx512ifma".
func KernelPath() string { return kernelPath.String() }

// KernelASMEnabled reports whether a vector path (anything above the Go
// reference loops) is selected.
func KernelASMEnabled() bool { return kernelPath != PathGo }

// SetKernelPath selects kernel path p, or the highest supported path below it
// when the build or CPU lacks p, and returns the previous selection; compare
// KernelPath() afterwards to learn whether p itself took effect. It exists for
// differential tests and A/B benchmarks that run the same inputs down several
// paths; it is NOT synchronized, so call it only while no ring kernels run
// concurrently (test setup/teardown).
func SetKernelPath(p Path) (prev Path) {
	prev = kernelPath
	kernelPath = min(p, detectedPath)
	return prev
}
