package ckks

import (
	"fmt"
	"math/bits"
	"strings"
	"testing"

	"github.com/fastfhe/fast/internal/ring"
	"github.com/fastfhe/fast/internal/ring/kerneltest"
)

// benchmarkPoints are the CKKS parameter points of the four BENCHMARK.json
// workloads (serve_hot and serve_churn share one). KEEP IN SYNC with the
// places that decide them, none of which ckks can import: benchmark/
// workload.go's fullSizing (log_n and levels per workload; LogScale 36, KLSS
// on) as compiled by fast.parametersLiteral in context.go (q0 and both P
// primes at LogScale+14 bits, alpha 2, T = 2 x 60 bits), restated in general
// below; and the literal in fast.NewBootstrapContext (bootstrap.go), restated
// once for this package's bootstrap tests in bootstrapLiteral.
func benchmarkPoints() []struct {
	name string
	lit  ParametersLiteral
} {
	general := func(logN, levels int) ParametersLiteral {
		return ParametersLiteral{
			LogN: logN, LogSlots: logN - 1, LogQ: append([]int{50}, repeat(36, levels)...), LogP: []int{50, 50},
			LogT: []int{60, 60}, LogScale: 36, Alpha: 2, AlphaT: 2, Seed: 1,
		}
	}
	return []struct {
		name string
		lit  ParametersLiteral
	}{
		{"serve_hot", general(11, 5)},
		{"serve_churn", general(11, 5)},
		{"lib_deep", general(13, 11)},
		{"lib_bootstrap", bootstrapLiteral(12, 4, 3)},
	}
}

// TestDatapathTable prints, for each benchmark workload's parameter point,
// which datapath every Q / P / T limb takes, and pins the split the paper's
// tunable-bit design is about: the hybrid chain (Q and P, 36- to 51-bit
// primes) runs on the 52-bit lanes, the 60-bit KLSS chain T on the 64-bit
// ones. Lane52 is a property of the prime alone and is checked on every host;
// the path column is what that makes each limb run on under each kernel path
// this host offers.
func TestDatapathTable(t *testing.T) {
	for _, pt := range benchmarkPoints() {
		name := pt.name
		params, err := NewParameters(pt.lit)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		chains := []struct {
			name string
			r    *ring.Ring
		}{{"Q", params.ringQ}, {"P", params.ringP}, {"T", params.ringT}}
		lane52, rows := 0, 0
		for _, c := range chains {
			if c.r == nil {
				continue
			}
			for i, m := range c.r.Moduli {
				rows++
				if m.Lane52() {
					lane52++
				}
				if c.name == "T" && m.Lane52() {
					t.Errorf("%s: T[%d] = %d is on the 52-bit datapath; the KLSS chain must keep the 64-bit kernels", name, i, m.Q)
				}
				if c.name != "T" && !m.Lane52() {
					t.Errorf("%s: %s[%d] = %d (%d bits) misses the 52-bit datapath", name, c.name, i, m.Q, bits.Len64(m.Q))
				}
			}
		}
		if name == "lib_bootstrap" && (rows != 28 || lane52 < 25) {
			t.Errorf("lib_bootstrap: %d of %d limbs on the 52-bit datapath, want at least 25 of 28", lane52, rows)
		}
		t.Run(name, func(t *testing.T) {
			kerneltest.EachPath(t, func(t *testing.T) {
				var b strings.Builder
				for _, c := range chains {
					if c.r == nil {
						continue
					}
					for i, m := range c.r.Moduli {
						// The per-modulus dispatch rule (ring pins each table
						// against it in TestNTTASMMatchesGo): the path in use,
						// except that a modulus too wide for the 52-bit lanes
						// keeps the 64-bit AVX2 kernels.
						path := ring.KernelPath()
						if path == ring.PathAVX512IFMA.String() && !m.Lane52() {
							path = ring.PathAVX2.String()
						}
						fmt.Fprintf(&b, "\n  %s[%2d] %2d bits  %-10s %d", c.name, i, bits.Len64(m.Q), path, m.Q)
					}
				}
				t.Logf("%s: %d of %d limbs qualify for the 52-bit datapath%s", name, lane52, rows, b.String())
			})
		})
	}
}

// KeySwitchShape reads off the literal what the compiled parameters hold:
// chain lengths, digit sizes and, per chain, the lane class of its widest
// compiled modulus (ring.Modulus.Lane52). The extra point has a 54-bit q0,
// which moves the whole Q chain to the 64-bit class.
func TestKeySwitchShapeMatchesCompiledParameters(t *testing.T) {
	pts := benchmarkPoints()
	pts = append(pts, struct {
		name string
		lit  ParametersLiteral
	}{"wide q0", ParametersLiteral{LogN: 10, LogSlots: 9, LogQ: []int{54, 40, 40}, LogP: []int{51, 51}, LogScale: 40, Alpha: 2}})
	lane := func(r *ring.Ring) int {
		if r != nil {
			for _, m := range r.Moduli {
				if !m.Lane52() {
					return 2
				}
			}
		}
		return 1
	}
	for _, pt := range pts {
		params, err := NewParameters(pt.lit)
		if err != nil {
			t.Fatalf("%s: %v", pt.name, err)
		}
		got := pt.lit.KeySwitchShape()
		want := got
		want.LogN, want.L, want.Alpha, want.AlphaT = params.LogN(), params.MaxLevel(), params.Alpha(), params.AlphaT()
		want.P, want.T = len(params.PChain()), len(params.TChain())
		want.QLane, want.PLane, want.TLane = lane(params.ringQ), lane(params.ringP), lane(params.ringT)
		if got != want {
			t.Fatalf("%s: shape %+v, compiled parameters say %+v", pt.name, got, want)
		}
	}
}
