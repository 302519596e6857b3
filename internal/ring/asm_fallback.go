//go:build !amd64 || purego

package ring

// Pure-Go build: no vectorized kernels compiled in. detectKernelPath pins the
// path at PathGo, so the dispatch sites in ntt.go, bconv.go, lane52.go and
// ring.go never reach the entry points below; they exist to satisfy the
// linker, and a stray call is a dispatch bug.

func detectKernelPath() Path { return PathGo }

const noKernels = "ring: vector kernel called in a build without kernels"

func fwdStagesASM(*NTTTable, []uint64, int)                      { panic(noKernels) }
func invStagesASM(*NTTTable, []uint64, int)                      { panic(noKernels) }
func invLastASM(*NTTTable, []uint64, []uint64, bool)             { panic(noKernels) }
func fwd52(*NTTTable, []uint64, int)                             { panic(noKernels) }
func inv52(*NTTTable, []uint64, int, bool)                       { panic(noKernels) }
func shoupMulVecASM(Modulus, []uint64, []uint64, uint64, uint64) { panic(noKernels) }
func shoupMulVec52(Modulus, []uint64, []uint64, uint64, uint64)  { panic(noKernels) }
func shoupMulSubVecASM(Modulus, []uint64, []uint64, []uint64, uint64, uint64) {
	panic(noKernels)
}
func shoupMulSubVec52(Modulus, []uint64, []uint64, []uint64, uint64, uint64) {
	panic(noKernels)
}
func mac52(Modulus, []uint64, [][]uint64, [][]uint64, uint64)            { panic(noKernels) }
func mac52Packed(Modulus, []uint64, [][]uint64, [][]byte, int, uint64)   { panic(noKernels) }
func bconvAccumASM(Modulus, []uint64, []uint64, int, []uint64)           { panic(noKernels) }
func bconvShoupASM(Modulus, []uint64, []uint64, int, []uint64, []uint64) { panic(noKernels) }
func addVecASM(Modulus, []uint64, []uint64, []uint64)                    { panic(noKernels) }
func subVecASM(Modulus, []uint64, []uint64, []uint64)                    { panic(noKernels) }
func permuteASM([]uint64, []uint64, []int)                               { panic(noKernels) }
func permuteAddASM(Modulus, []uint64, []uint64, []int)                   { panic(noKernels) }
