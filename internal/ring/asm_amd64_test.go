//go:build amd64 && !purego

package ring

import "testing"

// TestKernelPathFor feeds the feature decoder synthetic CPUID / XCR0 values:
// an instruction set counts only when the CPU advertises it and the OS saves
// the state it touches, and the result falls back avx512ifma -> avx2 -> go.
func TestKernelPathFor(t *testing.T) {
	const (
		avxOS   = cpuidOSXSAVE | cpuidAVX
		ifmaCPU = cpuidAVX2 | cpuidAVX512F | cpuidAVX512IFMA
	)
	for _, tc := range []struct {
		name             string
		ecx1, ebx7, xcr0 uint32
		want             Path
	}{
		{"everything", avxOS, ifmaCPU, xcr0AVX512, PathAVX512IFMA},
		{"everything plus unrelated bits", avxOS | 1, ifmaCPU | 1<<3 | 1<<30, xcr0AVX512 | 1, PathAVX512IFMA},
		{"IFMA advertised, ZMM state off", avxOS, ifmaCPU, xcr0AVX, PathAVX2},
		{"IFMA advertised, opmask state only", avxOS, ifmaCPU, xcr0AVX | 0x20, PathAVX2},
		{"AVX512F without IFMA", avxOS, cpuidAVX2 | cpuidAVX512F, xcr0AVX512, PathAVX2},
		{"IFMA bit without AVX512F", avxOS, cpuidAVX2 | cpuidAVX512IFMA, xcr0AVX512, PathAVX2},
		{"AVX2 only", avxOS, cpuidAVX2, xcr0AVX, PathAVX2},
		{"AVX2 without OSXSAVE", cpuidAVX, cpuidAVX2, xcr0AVX, PathGo},
		{"AVX2, YMM state off", avxOS, cpuidAVX2, 0x02, PathGo},
		{"AVX without AVX2", avxOS, 0, xcr0AVX, PathGo},
		{"AVX-512 without AVX2", avxOS, cpuidAVX512F | cpuidAVX512IFMA, xcr0AVX512, PathGo},
		{"nothing", 0, 0, 0, PathGo},
	} {
		if got := kernelPathFor(tc.ecx1, tc.ebx7, tc.xcr0); got != tc.want {
			t.Errorf("%s: kernelPathFor(%#x, %#x, %#x) = %v, want %v", tc.name, tc.ecx1, tc.ebx7, tc.xcr0, got, tc.want)
		}
	}
}
