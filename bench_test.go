// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark regenerates the corresponding rows/series and
// prints them (once) alongside the published values, then times the
// computation that produces them. Run with:
//
//	go test -bench=. -benchmem
//
// The EXPERIMENTS.md file records the printed numbers next to the paper's.
package fast

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/fastfhe/fast/internal/arch"
	"github.com/fastfhe/fast/internal/baselines"
	"github.com/fastfhe/fast/internal/costmodel"
	"github.com/fastfhe/fast/internal/tbm"
)

var printOnce sync.Map

// printTable emits a table once per benchmark name.
func printTable(b *testing.B, body func()) {
	if _, done := printOnce.LoadOrStore(b.Name(), true); !done {
		fmt.Fprintf(os.Stdout, "\n=== %s ===\n", b.Name())
		body()
	}
}

func mustSimulate(b *testing.B, w Workload, a Accelerator, m PlanMode) *Report {
	b.Helper()
	r, err := Simulate(w, a, m)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// --- Fig. 2: hybrid vs KLSS modular operations across levels ---

func BenchmarkFig2_QuantitativeLine(b *testing.B) {
	p := costmodel.SetII()
	printTable(b, func() {
		fmt.Println("level  hybrid_Mops  klss_Mops  quantitative_line (paper: >1 at 25-35, <1 at 5-12)")
		for l := 4; l <= 35; l++ {
			hy := p.HybridKeySwitch(l, 1).Total() / 1e6
			kl := p.KLSSKeySwitch(l, 1).Total() / 1e6
			fmt.Printf("%5d  %11.1f  %9.1f  %5.3f\n", l, hy, kl, hy/kl)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for l := 4; l <= 35; l++ {
			_ = p.QuantitativeLine(l, 1)
		}
	}
}

func BenchmarkFig2_KernelBreakdown(b *testing.B) {
	p := costmodel.SetII()
	printTable(b, func() {
		fmt.Println("level  method   NTT_Mops  BConv_Mops  KeyMult_Mops  Other_Mops")
		for _, l := range []int{5, 12, 21, 24, 25, 35} {
			for _, m := range []costmodel.Method{costmodel.Hybrid, costmodel.KLSS} {
				bd := p.KeySwitch(m, l, 1)
				fmt.Printf("%5d  %-7v  %8.1f  %10.1f  %12.1f  %10.1f\n",
					l, m, bd.NTT/1e6, bd.BConv/1e6, bd.KeyMult/1e6, bd.Other/1e6)
			}
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range []int{5, 12, 21, 24, 25, 35} {
			_ = p.HybridKeySwitch(l, 1)
			_ = p.KLSSKeySwitch(l, 1)
		}
	}
}

// --- Fig. 3: hoisting impact and working-set sizes ---

func BenchmarkFig3a_HoistingBreakdown(b *testing.B) {
	p := costmodel.SetII()
	printTable(b, func() {
		fmt.Println("level 35, KLSS totals normalised to hybrid (paper: rises towards 1 with h)")
		fmt.Println("hoist  hybrid_Mops  klss_Mops  klss/hybrid")
		for _, h := range []int{1, 2, 4, 6} {
			hy := p.HybridKeySwitch(35, h).Total() / 1e6
			kl := p.KLSSKeySwitch(35, h).Total() / 1e6
			fmt.Printf("%5d  %11.1f  %9.1f  %11.3f\n", h, hy, kl, kl/hy)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, h := range []int{1, 2, 4, 6} {
			_ = p.HybridKeySwitch(35, h)
			_ = p.KLSSKeySwitch(35, h)
		}
	}
}

func BenchmarkFig3b_WorkingSet(b *testing.B) {
	p := costmodel.SetII()
	printTable(b, func() {
		const mb = 1 << 20
		fmt.Println("level  ct_MB  evk_hybrid_MB  evk_klss_MB  4ct_MB  8ct_MB   (paper at 35: 19.7 / 79.3 / 295.3)")
		for l := 5; l <= 35; l += 5 {
			fmt.Printf("%5d  %5.1f  %13.1f  %11.1f  %6.1f  %6.1f\n", l,
				float64(p.CiphertextBytes(l))/mb,
				float64(p.EvkBytes(costmodel.Hybrid, l))/mb,
				float64(p.EvkBytes(costmodel.KLSS, l))/mb,
				float64(4*p.CiphertextBytes(l))/mb,
				float64(8*p.CiphertextBytes(l))/mb)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for l := 1; l <= 35; l++ {
			_ = p.EvkBytes(costmodel.Hybrid, l)
			_ = p.EvkBytes(costmodel.KLSS, l)
		}
	}
}

// --- Fig. 4: ALU area/power scaling with word length ---

func BenchmarkFig4_ALUScaling(b *testing.B) {
	printTable(b, func() {
		fmt.Println("bits  mult_area  mult_power  modmult_area  modmult_power  (normalised to 36b; paper 60b: 2.8/2.7/2.9/2.8)")
		for _, w := range []int{28, 32, 36, 44, 52, 60, 64} {
			fmt.Printf("%4d  %9.2f  %10.2f  %12.2f  %13.2f\n", w,
				tbm.RelativeArea(tbm.MultOnly, w), tbm.RelativePower(tbm.MultOnly, w),
				tbm.RelativeArea(tbm.ModMult, w), tbm.RelativePower(tbm.ModMult, w))
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range []int{28, 36, 60, 64} {
			_ = tbm.RelativeArea(tbm.ModMult, w)
			_ = tbm.RelativePower(tbm.ModMult, w)
		}
	}
}

// --- Table 3: FAST component area/power budget ---

func BenchmarkTable3_AreaPower(b *testing.B) {
	cfg := arch.FAST()
	printTable(b, func() {
		fmt.Println("component       area_mm2  peak_power_W")
		for _, c := range arch.Components() {
			ap := cfg.ComponentBudget(c)
			fmt.Printf("%-14s  %8.2f  %12.2f\n", c, ap.AreaMM2, ap.PowerW)
		}
		t := cfg.TotalAreaPower()
		fmt.Printf("%-14s  %8.2f  %12.2f   (paper total: 283.75 mm2)\n", "Total", t.AreaMM2, t.PowerW)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cfg.TotalAreaPower()
	}
}

// --- Table 4: hardware comparison against prior accelerators ---

func BenchmarkTable4_HardwareComparison(b *testing.B) {
	printTable(b, func() {
		fmt.Println("name          bits  lanes  onchip_MB  area_mm2")
		for _, r := range Published() {
			fmt.Printf("%-12s  %4d  %5d  %9.0f  %8.1f\n", r.Name, r.BitWidth, r.Lanes, r.OnChipMB, r.AreaMM2)
		}
		f := FASTAccelerator()
		fmt.Printf("%-12s  %4d  %5d  %9.0f  %8.1f   (our model)\n",
			"FAST(model)", 60, f.Config().Lanes(), f.Config().OnChipMB, f.AreaMM2())
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = FASTAccelerator().AreaMM2()
	}
}

// --- Table 5: execution time of every workload on every configuration ---

func BenchmarkTable5_ExecutionTime(b *testing.B) {
	ws := []Workload{BootstrapWorkload(), HELRWorkload(256), HELRWorkload(1024), ResNet20Workload()}
	accs := []Accelerator{SHARPAccelerator(), SHARPLMAccelerator(), SHARP8CAccelerator(), SHARPLM8CAccelerator(), FASTAccelerator()}
	printTable(b, func() {
		fmt.Println("config        bootstrap_ms  helr256_ms  helr1024_ms  resnet20_ms")
		for _, acc := range accs {
			fmt.Printf("%-12s", acc.Name())
			for _, w := range ws {
				r := mustSimulate(b, w, acc, PlanAuto)
				fmt.Printf("  %10.2f", r.TimeMS)
			}
			fmt.Println()
		}
		fmt.Println("published:")
		for _, p := range Published() {
			if p.Bootstrap > 0 {
				fmt.Printf("%-12s  %10.2f  %10.2f  %11.2f  %11.2f\n", p.Name, p.Bootstrap, p.HELR256, p.HELR1024, p.ResNet20)
			}
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = mustSimulate(b, ws[0], accs[len(accs)-1], PlanAuto)
	}
}

// --- Table 6: amortised multiplication time per slot ---

// tMultAS computes T_mult,a/s = (T_bootstrap + L_eff * T_mult) / (slots * L_eff).
func tMultAS(b *testing.B, acc Accelerator) float64 {
	r := mustSimulate(b, BootstrapWorkload(), acc, PlanAuto)
	const slots = 1 << 15
	const lEff = 8
	// A multiplication at the refreshed levels is far cheaper than the
	// bootstrap itself; approximate it with the EvalMod per-mult cost share.
	multMS := r.PhaseCycles["EvalMod"] / 7 / 1e6
	return (r.TimeMS + lEff*multMS) * 1e6 / (slots * lEff) // ns per slot-mult
}

func BenchmarkTable6_AmortizedMult(b *testing.B) {
	printTable(b, func() {
		fmt.Println("accelerator   T_mult,a/s_ns   (published)")
		for _, p := range append(Published(), baselines.Table6Extra()...) {
			if p.TmultNS > 0 {
				fmt.Printf("%-12s  %12.1f   (published)\n", p.Name, p.TmultNS)
			}
		}
		fmt.Printf("%-12s  %12.1f   (our model; paper 5.4)\n", "FAST(model)", tMultAS(b, FASTAccelerator()))
		fmt.Printf("%-12s  %12.1f   (our model; paper 12.8)\n", "SHARP(model)", tMultAS(b, SHARPAccelerator()))
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tMultAS(b, FASTAccelerator())
	}
}

// --- Table 7: power, energy, EDP per workload ---

func BenchmarkTable7_PowerEnergyEDP(b *testing.B) {
	ws := []Workload{BootstrapWorkload(), HELRWorkload(256), HELRWorkload(1024), ResNet20Workload()}
	printTable(b, func() {
		fmt.Println("workload    avg_power_W  energy_J  EDP_mJs   (paper bootstrap: 120 W, 0.16 J)")
		for _, w := range ws {
			r := mustSimulate(b, w, FASTAccelerator(), PlanAuto)
			fmt.Printf("%-10s  %11.1f  %8.3f  %7.3f\n", w.Name(), r.AvgPowerW, r.EnergyJ, r.EDP*1e3)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = mustSimulate(b, ws[0], FASTAccelerator(), PlanAuto)
	}
}

// --- Fig. 10: execution-time breakdown OneKSW / Hoisting / Aether ---

func BenchmarkFig10_Breakdown(b *testing.B) {
	w := BootstrapWorkload()
	printTable(b, func() {
		fmt.Println("plan      time_ms  hybrid_Mcy  klss_Mcy   (paper: hoisting -10%, Aether 1.24x, 57% of hybrid time replaced)")
		for _, tc := range []struct {
			name string
			mode PlanMode
		}{{"oneksw", PlanOneKSW}, {"hoisting", PlanHoisting}, {"aether", PlanAether}} {
			r := mustSimulate(b, w, FASTAccelerator(), tc.mode)
			fmt.Printf("%-8s  %7.3f  %10.2f  %8.2f\n", tc.name, r.TimeMS, r.HybridCycles/1e6, r.KLSSCycles/1e6)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = mustSimulate(b, w, FASTAccelerator(), PlanAether)
	}
}

// --- Fig. 11(a): component utilisation ---

func BenchmarkFig11a_Utilization(b *testing.B) {
	printTable(b, func() {
		r := mustSimulate(b, BootstrapWorkload(), FASTAccelerator(), PlanAuto)
		fmt.Println("component  utilisation   (paper: NTTU 66.5%, BConvU 24.3%, KMU 25.7%, HBM 44.3%)")
		fmt.Printf("NTTU    %6.1f%%\nBConvU  %6.1f%%\nKMU     %6.1f%%\nHBM     %6.1f%%\n",
			100*r.NTTUUtil, 100*r.BConvUUtil, 100*r.KMUUtil, 100*r.HBMUtil)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = mustSimulate(b, BootstrapWorkload(), FASTAccelerator(), PlanAuto)
	}
}

// --- Fig. 11(b): bootstrap modular-operation comparison ---

func BenchmarkFig11b_ModOps(b *testing.B) {
	w := BootstrapWorkload()
	printTable(b, func() {
		fmt.Println("plan      total_Gops  NTT_Gops  BConv_Gops  KeyMult_Gops  Other_Gops")
		fmt.Println("(paper: FAST total -17.3%, NTT -16%, BConv +21.2%, element ops -26.7% vs hybrid-only)")
		for _, tc := range []struct {
			name string
			mode PlanMode
		}{{"hybrid", PlanOneKSW}, {"fast", PlanAether}} {
			r := mustSimulate(b, w, FASTAccelerator(), tc.mode)
			fmt.Printf("%-8s  %10.2f  %8.2f  %10.2f  %12.2f  %10.2f\n", tc.name,
				r.TotalModOps/1e9, r.KernelNTT/1e9, r.KernelBConv/1e9, r.KernelKeyMult/1e9, r.KernelOther/1e9)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = mustSimulate(b, w, FASTAccelerator(), PlanAether)
	}
}

// --- Fig. 12: ablation ladder ---

func BenchmarkFig12_Ablation(b *testing.B) {
	ws := []Workload{BootstrapWorkload(), HELRWorkload(256), HELRWorkload(1024), ResNet20Workload()}
	printTable(b, func() {
		fmt.Println("config           bootstrap  helr256  helr1024  resnet20   (ms; ladder must be monotone)")
		for _, acc := range []Accelerator{FASTAccelerator(), FASTNoTBMAccelerator(), FAST36Accelerator()} {
			fmt.Printf("%-15s", acc.Name())
			for _, w := range ws {
				r := mustSimulate(b, w, acc, PlanAuto)
				fmt.Printf("  %8.2f", r.TimeMS)
			}
			fmt.Println()
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = mustSimulate(b, ws[0], FASTNoTBMAccelerator(), PlanAuto)
	}
}

// --- Fig. 13: sensitivity to SRAM capacity and cluster count ---

func BenchmarkFig13a_MemorySensitivity(b *testing.B) {
	printTable(b, func() {
		fmt.Println("onchip_MB  time_ms  area_mm2  perf_per_area   (paper: small SRAM hurts, oversize plateaus)")
		for _, mb := range []float64{70, 140, 281, 422, 562} {
			acc := FASTAccelerator().WithOnChipMB(mb)
			r := mustSimulate(b, BootstrapWorkload(), acc, PlanAuto)
			perfArea := 1 / (r.TimeMS * acc.AreaMM2())
			fmt.Printf("%9.0f  %7.3f  %8.1f  %13.5f\n", mb, r.TimeMS, acc.AreaMM2(), perfArea*1e3)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = mustSimulate(b, BootstrapWorkload(), FASTAccelerator().WithOnChipMB(140), PlanAuto)
	}
}

func BenchmarkFig13b_ClusterSensitivity(b *testing.B) {
	printTable(b, func() {
		fmt.Println("clusters  time_ms  area_mm2  perf_per_area   (paper: 8C = 1.7x perf, 1.37x area)")
		base := 0.0
		for _, n := range []int{2, 4, 8} {
			acc := FASTAccelerator()
			if n != 4 {
				acc = acc.WithClusters(n)
			}
			r := mustSimulate(b, BootstrapWorkload(), acc, PlanAuto)
			if n == 4 {
				base = r.TimeMS
			}
			fmt.Printf("%8d  %7.3f  %8.1f  %13.5f\n", n, r.TimeMS, acc.AreaMM2(), 1e3/(r.TimeMS*acc.AreaMM2()))
		}
		if base == 0 {
			fmt.Println("(4-cluster base missing)")
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = mustSimulate(b, BootstrapWorkload(), FASTAccelerator().WithClusters(8), PlanAuto)
	}
}

// --- Functional-layer microbenchmarks ---

func benchCtx(b *testing.B) *Context {
	b.Helper()
	ctx, err := NewContext(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	return ctx
}

func randomVec(n int) []complex128 {
	rng := rand.New(rand.NewSource(1))
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
	}
	return v
}

func BenchmarkFunctionalEncrypt(b *testing.B) {
	ctx := benchCtx(b)
	v := randomVec(ctx.Slots())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Encrypt(v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFunctionalMulHybrid(b *testing.B) {
	ctx := benchCtx(b)
	ct, _ := ctx.Encrypt(randomVec(ctx.Slots()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Mul(ct, ct, WithMethod(Hybrid)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFunctionalMulKLSS(b *testing.B) {
	ctx := benchCtx(b)
	ct, _ := ctx.Encrypt(randomVec(ctx.Slots()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Mul(ct, ct, WithMethod(KLSS)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Throughput: one Context shared by concurrent request streams ---
//
// The concurrency model targets the server scenario of §6: many independent
// homomorphic requests against one key set. Scratch pooling plus the
// stateless per-call options mean ops/sec should scale with the number of
// caller goroutines (the acceptance bar is >= 1.5x at 4 goroutines).
// Compare:
//
//	go test -bench 'BenchmarkThroughputMul/goroutines=(1|4|8)' -benchmem

func benchThroughput(b *testing.B, goroutines int, op func(i int) error) {
	b.Helper()
	b.ResetTimer()
	var wg sync.WaitGroup
	next := int64(0)
	fail := func(err error) {
		b.Error(err)
	}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= b.N {
					return
				}
				if err := op(i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func BenchmarkThroughputMul(b *testing.B) {
	ctx := benchCtx(b)
	ct, _ := ctx.Encrypt(randomVec(ctx.Slots()))
	for _, g := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			benchThroughput(b, g, func(int) error {
				_, err := ctx.Mul(ct, ct, WithMethod(Hybrid))
				return err
			})
		})
	}
}

func BenchmarkThroughputRotate(b *testing.B) {
	ctx := benchCtx(b)
	ct, _ := ctx.Encrypt(randomVec(ctx.Slots()))
	for _, g := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			benchThroughput(b, g, func(i int) error {
				// Alternate backends to stress per-call method resolution.
				m := Hybrid
				if i%2 == 1 {
					m = KLSS
				}
				_, err := ctx.Rotate(ct, 1, WithMethod(m))
				return err
			})
		})
	}
}

// BenchmarkLatencyMulParallel measures the other use of the same knob: a
// single stream with per-operation limb parallelism (WithParallelism) instead
// of request parallelism.
func BenchmarkLatencyMulParallel(b *testing.B) {
	ctx, err := NewContext(DefaultConfig(), WithParallelism(-1))
	if err != nil {
		b.Fatal(err)
	}
	ct, _ := ctx.Encrypt(randomVec(ctx.Slots()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Mul(ct, ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFunctionalRotateHoisted4(b *testing.B) {
	ctx := benchCtx(b)
	ct, _ := ctx.Encrypt(randomVec(ctx.Slots()))
	rots := []int{1, 2, 4, 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.RotateHoisted(ct, rots); err != nil {
			b.Fatal(err)
		}
	}
}

// --- What a cold session costs ---
//
// A fastd create is NewContext; a cold request is DecodeSessionSnapshot
// (SHA-256 and header) and then Restore (keygen, as NewContext, plus the
// parameter compile only when no live context shares the configuration). The "compile"
// leg drops every context and collects before each iteration, so the compiled
// parameter set is rebuilt each time; the other legs keep one live context of
// the configuration, as a daemon with resident sessions does. first_mul is
// the first Mul on a freshly restored context (compare
// BenchmarkFunctionalMulHybrid, a warm one). Run with:
//
//	go test -run '^$' -bench 'NewContext|SessionRestore' -benchmem

func BenchmarkNewContext(b *testing.B) {
	cfg := DefaultConfig()
	b.Run("compile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			runtime.GC()
			b.StartTimer()
			if _, err := NewContext(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shared", func(b *testing.B) {
		live := benchCtx(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfg.Seed = int64(2 + i%64)
			if _, err := NewContext(cfg); err != nil {
				b.Fatal(err)
			}
		}
		runtime.KeepAlive(live)
	})
}

func BenchmarkSessionRestore(b *testing.B) {
	live := benchCtx(b)
	var buf bytes.Buffer
	if err := live.WriteSessionSnapshot(&buf, SessionMeta{ID: "bench"}); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := DecodeSessionSnapshot(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	snap, err := DecodeSessionSnapshot(data)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("restore", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := snap.Restore(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("first_mul", func(b *testing.B) {
		v := randomVec(live.Slots())
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ctx, err := snap.Restore()
			if err != nil {
				b.Fatal(err)
			}
			ct, err := ctx.Encrypt(v)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := ctx.Mul(ct, ct, WithMethod(Hybrid)); err != nil {
				b.Fatal(err)
			}
		}
	})
	runtime.KeepAlive(live)
}

func BenchmarkTBMMul60(b *testing.B) {
	x := uint64(0x0ABCDEF012345678) & ((1 << 60) - 1)
	y := uint64(0x0123456789ABCDEF) & ((1 << 60) - 1)
	var hi, lo uint64
	for i := 0; i < b.N; i++ {
		hi, lo = tbm.Mul60(x, y)
	}
	_ = hi
	_ = lo
}
