// Command benchtables regenerates every table and figure of the paper's
// evaluation section in one run, printing our modelled numbers next to the
// published ones. It is the one-shot version of the bench_test.go harness.
//
// Usage:
//
//	benchtables [-only table5] (table3 table4 table5 table6 table7
//	                            fig2 fig3 fig4 fig10 fig11 fig12 fig13)
package main

import (
	"flag"
	"fmt"
	"os"

	fast "github.com/fastfhe/fast"
	"github.com/fastfhe/fast/internal/arch"
	"github.com/fastfhe/fast/internal/baselines"
	"github.com/fastfhe/fast/internal/costmodel"
	"github.com/fastfhe/fast/internal/tbm"
)

// observer accumulates metrics across every simulation of the run when
// -obs-json is passed (nil otherwise: zero overhead).
var observer *fast.Observer

func simulate(w fast.Workload, a fast.Accelerator, m fast.PlanMode) *fast.Report {
	r, err := fast.SimulateObserved(w, a, m, observer)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
	return r
}

func fig2() {
	fmt.Println("--- Fig. 2(a): quantitative line hybrid/KLSS per level ---")
	p := costmodel.SetII()
	fmt.Println("level  hybrid_Mops  klss_Mops  line")
	for l := 4; l <= 35; l++ {
		hy := p.HybridKeySwitch(l, 1).Total() / 1e6
		kl := p.KLSSKeySwitch(l, 1).Total() / 1e6
		fmt.Printf("%5d  %11.1f  %9.1f  %5.3f\n", l, hy, kl, hy/kl)
	}
	fmt.Println("\n--- Fig. 2(b): kernel breakdown at representative levels ---")
	fmt.Println("level  method   NTT(M)  BConv(M)  KeyMult(M)  Other(M)")
	for _, l := range []int{5, 12, 21, 24, 25, 35} {
		for _, m := range []costmodel.Method{costmodel.Hybrid, costmodel.KLSS} {
			bd := p.KeySwitch(m, l, 1)
			fmt.Printf("%5d  %-7v  %6.1f  %8.1f  %10.1f  %8.1f\n",
				l, m, bd.NTT/1e6, bd.BConv/1e6, bd.KeyMult/1e6, bd.Other/1e6)
		}
	}
}

func fig3() {
	p := costmodel.SetII()
	fmt.Println("--- Fig. 3(a): hoisting impact at level 35 (KLSS normalised to hybrid) ---")
	fmt.Println("hoist  klss/hybrid")
	for _, h := range []int{1, 2, 4, 6} {
		fmt.Printf("%5d  %11.3f\n", h, p.KLSSKeySwitch(35, h).Total()/p.HybridKeySwitch(35, h).Total())
	}
	fmt.Println("\n--- Fig. 3(b): working-set sizes (MB) ---")
	const mb = 1 << 20
	fmt.Println("level  ct  evk_hybrid  evk_klss  4ct  8ct")
	for l := 5; l <= 35; l += 5 {
		fmt.Printf("%5d  %4.1f  %10.1f  %8.1f  %5.1f  %5.1f\n", l,
			float64(p.CiphertextBytes(l))/mb,
			float64(p.EvkBytes(costmodel.Hybrid, l))/mb,
			float64(p.EvkBytes(costmodel.KLSS, l))/mb,
			float64(4*p.CiphertextBytes(l))/mb,
			float64(8*p.CiphertextBytes(l))/mb)
	}
	fmt.Println("(paper at level 35: ct 19.7, hybrid 79.3, KLSS 295.3)")
}

func fig4() {
	fmt.Println("--- Fig. 4: ALU area/power scaling (normalised to 36-bit) ---")
	fmt.Println("bits  mult_area  mult_power  modmult_area  modmult_power")
	for _, w := range []int{28, 32, 36, 44, 52, 60, 64} {
		fmt.Printf("%4d  %9.2f  %10.2f  %12.2f  %13.2f\n", w,
			tbm.RelativeArea(tbm.MultOnly, w), tbm.RelativePower(tbm.MultOnly, w),
			tbm.RelativeArea(tbm.ModMult, w), tbm.RelativePower(tbm.ModMult, w))
	}
	fmt.Println("(paper at 60-bit: 2.8 / 2.7 / 2.9 / 2.8)")
}

func table3() {
	fmt.Println("--- Table 3: FAST area and peak power ---")
	cfg := arch.FAST()
	fmt.Println("component       area_mm2  peak_W   published")
	pub := map[arch.Component][2]float64{
		arch.NTTU: {60.88, 142.7}, arch.BConvU: {28.89, 86.6}, arch.KMU: {10.58, 27.67},
		arch.AutoU: {0.6, 0.8}, arch.AEM: {8.67, 10.7}, arch.RegisterFile: {123.9, 29.4},
		arch.HBM: {29.6, 31.8}, arch.NoC: {20.6, 27.0},
	}
	for _, c := range arch.Components() {
		ap := cfg.ComponentBudget(c)
		fmt.Printf("%-14s  %8.2f  %6.1f   (%.2f / %.1f)\n", c, ap.AreaMM2, ap.PowerW, pub[c][0], pub[c][1])
	}
	t := cfg.TotalAreaPower()
	fmt.Printf("%-14s  %8.2f  %6.1f   (283.75 mm2)\n", "Total", t.AreaMM2, t.PowerW)
}

func table4() {
	fmt.Println("--- Table 4: hardware comparison ---")
	fmt.Println("name          bits  lanes  onchip_MB  area_mm2")
	for _, r := range baselines.All() {
		fmt.Printf("%-12s  %4d  %5d  %9.0f  %8.1f\n", r.Name, r.BitWidth, r.Lanes, r.OnChipMB, r.AreaMM2)
	}
	f := fast.FASTAccelerator()
	fmt.Printf("%-12s  %4d  %5d  %9.0f  %8.1f   (our model)\n", "FAST(model)", 60,
		f.Config().Lanes(), f.Config().OnChipMB, f.AreaMM2())
}

func table5() {
	fmt.Println("--- Table 5: execution time (ms), simulated vs published ---")
	ws := []fast.Workload{fast.BootstrapWorkload(), fast.HELRWorkload(256), fast.HELRWorkload(1024), fast.ResNet20Workload()}
	accs := []fast.Accelerator{
		fast.SHARPAccelerator(), fast.SHARPLMAccelerator(),
		fast.SHARP8CAccelerator(), fast.SHARPLM8CAccelerator(), fast.FASTAccelerator(),
	}
	fmt.Println("config        bootstrap  helr256  helr1024  resnet20")
	for _, acc := range accs {
		fmt.Printf("%-12s", acc.Name())
		for _, w := range ws {
			fmt.Printf("  %8.2f", simulate(w, acc, fast.PlanAuto).TimeMS)
		}
		fmt.Println()
	}
	fmt.Println("published:")
	for _, p := range baselines.All() {
		if p.Bootstrap > 0 {
			fmt.Printf("%-12s  %8.2f  %7.2f  %8.2f  %8.2f\n", p.Name, p.Bootstrap, p.HELR256, p.HELR1024, p.ResNet20)
		}
	}
	sharp := simulate(ws[0], accs[0], fast.PlanAuto)
	fastR := simulate(ws[0], accs[4], fast.PlanAuto)
	fmt.Printf("bootstrap speedup FAST/SHARP: %.2fx (published 2.26x)\n", sharp.TimeMS/fastR.TimeMS)
}

func table6() {
	fmt.Println("--- Table 6: T_mult,a/s ---")
	fmt.Println("accelerator   T_ns")
	for _, p := range append(baselines.All(), baselines.Table6Extra()...) {
		if p.TmultNS > 0 {
			fmt.Printf("%-12s  %6.1f  (published)\n", p.Name, p.TmultNS)
		}
	}
	for _, acc := range []fast.Accelerator{fast.FASTAccelerator(), fast.SHARPAccelerator()} {
		r := simulate(fast.BootstrapWorkload(), acc, fast.PlanAuto)
		const slots, lEff = 1 << 15, 8
		multMS := r.PhaseCycles["EvalMod"] / 7 / 1e6
		tns := (r.TimeMS + lEff*multMS) * 1e6 / (slots * lEff)
		fmt.Printf("%-12s  %6.1f  (our model)\n", acc.Name()+"(model)", tns)
	}
}

func table7() {
	fmt.Println("--- Table 7: average power, energy, EDP on FAST ---")
	fmt.Println("workload      power_W  energy_J  EDP_mJs")
	for _, w := range []fast.Workload{
		fast.BootstrapWorkload(), fast.HELRWorkload(256), fast.HELRWorkload(1024),
		fast.HELRTrainingWorkload(256, 32), fast.ResNet20Workload(),
	} {
		r := simulate(w, fast.FASTAccelerator(), fast.PlanAuto)
		fmt.Printf("%-12s  %7.1f  %8.3f  %7.3f\n", w.Name(), r.AvgPowerW, r.EnergyJ, r.EDP*1e3)
	}
	fmt.Println("(paper bootstrap row: 120 W, 0.16 J; see EXPERIMENTS.md on the published table's internal units)")
}

func fig10() {
	fmt.Println("--- Fig. 10: execution-time breakdown on FAST ---")
	fmt.Println("plan      time_ms  hybrid_Mcy  klss_Mcy")
	for _, tc := range []struct {
		name string
		mode fast.PlanMode
	}{{"oneksw", fast.PlanOneKSW}, {"hoisting", fast.PlanHoisting}, {"aether", fast.PlanAether}} {
		r := simulate(fast.BootstrapWorkload(), fast.FASTAccelerator(), tc.mode)
		fmt.Printf("%-8s  %7.3f  %10.2f  %8.2f\n", tc.name, r.TimeMS, r.HybridCycles/1e6, r.KLSSCycles/1e6)
	}
}

func fig11() {
	r := simulate(fast.BootstrapWorkload(), fast.FASTAccelerator(), fast.PlanAuto)
	fmt.Println("--- Fig. 11(a): FAST component utilisation on bootstrap ---")
	fmt.Printf("NTTU %.1f%%  BConvU %.1f%%  KMU %.1f%%  HBM %.1f%%  (paper: 66.5 / 24.3 / 25.7 / 44.3)\n",
		100*r.NTTUUtil, 100*r.BConvUUtil, 100*r.KMUUtil, 100*r.HBMUtil)
	fmt.Println("--- Fig. 11(b): bootstrap modular operations ---")
	hy := simulate(fast.BootstrapWorkload(), fast.FASTAccelerator(), fast.PlanOneKSW)
	fmt.Printf("hybrid-only: %.2f Gops (NTT %.2f, BConv %.2f, KeyMult %.2f)\n",
		hy.TotalModOps/1e9, hy.KernelNTT/1e9, hy.KernelBConv/1e9, hy.KernelKeyMult/1e9)
	fmt.Printf("FAST plan:   %.2f Gops (NTT %.2f, BConv %.2f, KeyMult %.2f)\n",
		r.TotalModOps/1e9, r.KernelNTT/1e9, r.KernelBConv/1e9, r.KernelKeyMult/1e9)
	fmt.Printf("total change %.1f%% (paper -17.3%%)\n", 100*(r.TotalModOps-hy.TotalModOps)/hy.TotalModOps)
}

func fig12() {
	fmt.Println("--- Fig. 12: ablation (ms) ---")
	ws := []fast.Workload{fast.BootstrapWorkload(), fast.HELRWorkload(256), fast.HELRWorkload(1024), fast.ResNet20Workload()}
	for _, acc := range []fast.Accelerator{fast.FASTAccelerator(), fast.FASTNoTBMAccelerator(), fast.FAST36Accelerator()} {
		fmt.Printf("%-15s", acc.Name())
		for _, w := range ws {
			fmt.Printf("  %8.2f", simulate(w, acc, fast.PlanAuto).TimeMS)
		}
		fmt.Println()
	}
}

func fig13() {
	fmt.Println("--- Fig. 13(a): SRAM sensitivity (bootstrap) ---")
	fmt.Println("onchip_MB  time_ms  area_mm2")
	for _, mb := range []float64{70, 140, 281, 422, 562} {
		acc := fast.FASTAccelerator().WithOnChipMB(mb)
		r := simulate(fast.BootstrapWorkload(), acc, fast.PlanAuto)
		fmt.Printf("%9.0f  %7.3f  %8.1f\n", mb, r.TimeMS, acc.AreaMM2())
	}
	fmt.Println("--- Fig. 13(b): cluster sensitivity (bootstrap) ---")
	fmt.Println("clusters  time_ms  area_mm2")
	for _, n := range []int{2, 4, 8} {
		acc := fast.FASTAccelerator()
		if n != 4 {
			acc = acc.WithClusters(n)
		}
		r := simulate(fast.BootstrapWorkload(), acc, fast.PlanAuto)
		fmt.Printf("%8d  %7.3f  %8.1f\n", n, r.TimeMS, acc.AreaMM2())
	}
}

// all lists every table and figure in output order; each prints to stdout
// and is followed by one blank line.
var all = []struct {
	name string
	fn   func()
}{
	{"fig2", fig2}, {"fig3", fig3}, {"fig4", fig4},
	{"table3", table3}, {"table4", table4}, {"table5", table5},
	{"table6", table6}, {"table7", table7},
	{"fig10", fig10}, {"fig11", fig11}, {"fig12", fig12}, {"fig13", fig13},
}

func main() {
	only := flag.String("only", "", "regenerate a single table/figure (e.g. table5, fig11)")
	obsJSON := flag.String("obs-json", "", "write the accumulated metrics registry (dispatch counters, decision tallies, last-run gauges) as JSON to this file")
	flag.Parse()
	if *obsJSON != "" {
		observer = fast.NewObserver()
	}

	ran := false
	for _, e := range all {
		if *only == "" || *only == e.name {
			e.fn()
			fmt.Println()
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "benchtables: unknown selector %q\n", *only)
		os.Exit(1)
	}
	if *obsJSON != "" {
		f, err := os.Create(*obsJSON)
		if err == nil {
			err = observer.WriteMetricsJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtables:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchtables: wrote metrics snapshot to %s\n", *obsJSON)
	}
}
