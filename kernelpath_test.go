package fast

import (
	"testing"

	"github.com/fastfhe/fast/internal/ring/kerneltest"
)

// TestGoldenBytesEveryKernelPath reruns the golden-bytes tests of this
// package under each kernel path (go, avx2, avx512ifma) the host offers: the
// 52-bit datapath must produce, byte for byte, what the 64-bit kernels and the
// Go reference loops produce, so the expected values in those tests are the
// same ones on every path.
func TestGoldenBytesEveryKernelPath(t *testing.T) {
	kerneltest.EachPath(t, func(t *testing.T) {
		t.Run("TestBootstrapGoldenBytes", TestBootstrapGoldenBytes)
		t.Run("TestPlanGoldenBenchmarkPrograms", TestPlanGoldenBenchmarkPrograms)
	})
}
