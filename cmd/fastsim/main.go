// Command fastsim runs one of the paper's benchmark workloads on a simulated
// accelerator configuration and prints the execution metrics: latency,
// per-component utilisation, evaluation-key traffic, energy and EDP.
//
// Usage:
//
//	fastsim -workload bootstrap|helr256|helr1024|resnet20 \
//	        -config fast|sharp|sharp-lm|sharp-8c|sharp-lm8c|fast-notbm|fast-36 \
//	        [-plan aether|hoisting|oneksw] [-json] [-sweep clusters|memory] \
//	        [-trace-out t.json] [-metrics-out m.json] [-http 127.0.0.1:9090]
//
// -sweep prints a CSV sensitivity study (Fig. 13) instead of one result; each
// swept configuration is planned as -plan says.
//
// -trace-out writes the simulated timeline as Chrome trace-event JSON
// (loadable in chrome://tracing or https://ui.perfetto.dev), -metrics-out
// dumps the metrics registry as JSON, and -http serves /metrics (Prometheus
// text), /debug/vars (expvar) and /debug/pprof on the given address after the
// run, blocking until interrupted.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"

	"github.com/fastfhe/fast/internal/arch"
	"github.com/fastfhe/fast/internal/baselines"
	"github.com/fastfhe/fast/internal/costmodel"
	"github.com/fastfhe/fast/internal/obs"
	"github.com/fastfhe/fast/internal/sim"
	"github.com/fastfhe/fast/internal/trace"
	"github.com/fastfhe/fast/internal/workloads"
)

func pickWorkload(name string) (*trace.Trace, error) {
	p := workloads.DefaultProfile()
	switch name {
	case "bootstrap":
		return workloads.Bootstrap(p), nil
	case "helr256":
		return workloads.HELR(p, 256), nil
	case "helr1024":
		return workloads.HELR(p, 1024), nil
	case "resnet20":
		return workloads.ResNet20(p), nil
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
}

func pickConfig(name string) (arch.Config, error) {
	switch name {
	case "fast":
		return arch.FAST(), nil
	case "sharp":
		return baselines.SHARP(), nil
	case "sharp-lm":
		return baselines.SHARPLM(), nil
	case "sharp-8c":
		return baselines.SHARP8C(), nil
	case "sharp-lm8c":
		return baselines.SHARPLM8C(), nil
	case "fast-notbm":
		return baselines.FASTNoTBM(), nil
	case "fast-36":
		return baselines.FAST36(), nil
	default:
		return arch.Config{}, fmt.Errorf("unknown config %q", name)
	}
}

// Test hooks: httpStarted observes the bound address once serving begins, and
// httpWait blocks until the server should shut down (interrupt by default).
var (
	httpStarted = func(net.Addr) {}
	httpWait    = func() {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
	}
)

// writeFile dumps one export produced by write to path.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fastsim", flag.ContinueOnError)
	workload := fs.String("workload", "bootstrap", "workload: bootstrap, helr256, helr1024, resnet20")
	config := fs.String("config", "fast", "accelerator: fast, sharp, sharp-lm, sharp-8c, sharp-lm8c, fast-notbm, fast-36")
	planKind := fs.String("plan", "", "key-switch plan: aether (default from config flags), hoisting, oneksw")
	asJSON := fs.Bool("json", false, "emit the result as JSON")
	sweep := fs.String("sweep", "", "CSV sensitivity sweep: clusters or memory (Fig. 13)")
	traceOut := fs.String("trace-out", "", "write the simulated timeline as Chrome trace-event JSON to this file")
	metricsOut := fs.String("metrics-out", "", "write the metrics registry snapshot as JSON to this file")
	httpAddr := fs.String("http", "", "serve /metrics, /debug/vars and /debug/pprof on this address after the run (blocks until interrupted)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	tr, err := pickWorkload(*workload)
	if err != nil {
		return err
	}
	cfg, err := pickConfig(*config)
	if err != nil {
		return err
	}
	params := costmodel.SetII()

	klss, hoist := cfg.EnableKLSS, cfg.EnableHoisting
	switch *planKind {
	case "oneksw":
		klss, hoist = false, false
	case "hoisting":
		klss, hoist = false, true
	case "aether":
		klss, hoist = true, true
	case "":
	default:
		return fmt.Errorf("unknown plan %q", *planKind)
	}
	if *sweep != "" {
		return runSweep(*sweep, tr, cfg, params, klss, hoist, stdout)
	}

	plan, err := sim.Plan(params, cfg, tr, klss, hoist)
	if err != nil {
		return err
	}
	simulator, err := sim.New(params, cfg, plan)
	if err != nil {
		return err
	}
	var o *obs.Observer
	if *traceOut != "" || *metricsOut != "" || *httpAddr != "" {
		o = obs.NewTracing(0)
		simulator.SetObserver(o)
	}
	res, err := simulator.Run(tr)
	if err != nil {
		return err
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return err
		}
	} else {
		printResult(stdout, tr, cfg, res)
	}

	if *traceOut != "" {
		if err := writeFile(*traceOut, o.WriteChromeTrace); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote Chrome trace (%d events) to %s\n", o.Tr().Len(), *traceOut)
	}
	if *metricsOut != "" {
		if err := writeFile(*metricsOut, o.WriteSnapshot); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote metrics snapshot to %s\n", *metricsOut)
	}
	if *httpAddr != "" {
		addr, shutdown, err := o.Serve(*httpAddr)
		if err != nil {
			return err
		}
		defer shutdown()
		fmt.Fprintf(stdout, "serving observability on http://%s (Ctrl-C to exit)\n", addr)
		httpStarted(addr)
		httpWait()
	}
	return nil
}

func printResult(w io.Writer, tr *trace.Trace, cfg arch.Config, res *sim.Result) {
	fmt.Fprintf(w, "workload %-10s on %-12s: %.3f ms (%.0f cycles)\n", tr.Name, cfg.Name, res.TimeMS, res.Cycles)
	fmt.Fprintf(w, "  key-switches: %d  evk traffic: %.1f MB  pool hits/misses: %d/%d (prefetched %d)\n",
		tr.KeySwitchCount(), float64(res.EvkBytes)/(1<<20), res.PoolHits, res.PoolMisses, res.Prefetched)
	fmt.Fprintf(w, "  utilization: NTTU %.1f%%  BConvU %.1f%%  KMU %.1f%%  HBM %.1f%%  (stall %.1f%%)\n",
		100*res.Utilization(arch.NTTU), 100*res.Utilization(arch.BConvU),
		100*res.Utilization(arch.KMU), 100*res.Utilization(arch.HBM), 100*res.StallCy/res.Cycles)
	fmt.Fprintf(w, "  method split: hybrid %.0f cycles, klss %.0f cycles\n",
		res.MethodCycles[costmodel.Hybrid], res.MethodCycles[costmodel.KLSS])
	fmt.Fprintf(w, "  power %.1f W  energy %.3f J  EDP %.4f mJ*s\n", res.AvgPowerW, res.EnergyJ, res.EDP*1e3)
	for _, ph := range tr.Phases() {
		fmt.Fprintf(w, "    phase %-12s %8.0f cycles (%.1f%%)\n", ph, res.PhaseCycles[ph], 100*res.PhaseCycles[ph]/res.Cycles)
	}
}

// runSweep prints a CSV sensitivity study over cluster counts or SRAM sizes,
// planning every configuration with the given KLSS/hoisting pair.
func runSweep(kind string, tr *trace.Trace, base arch.Config, params costmodel.Params, klss, hoist bool, stdout io.Writer) error {
	var configs []arch.Config
	switch kind {
	case "clusters":
		for _, n := range []int{1, 2, 4, 8, 16} {
			c := base
			if n != base.Clusters {
				c = base.WithClusters(n)
			}
			configs = append(configs, c)
		}
	case "memory":
		for _, mb := range []float64{70, 140, 210, 281, 422, 562} {
			configs = append(configs, base.WithOnChipMB(mb))
		}
	default:
		return fmt.Errorf("unknown sweep %q (want clusters or memory)", kind)
	}
	fmt.Fprintln(stdout, "name,clusters,onchip_mb,time_ms,area_mm2,power_w,energy_j,evk_mb,ntt_util,hbm_util")
	for _, c := range configs {
		plan, err := sim.Plan(params, c, tr, klss, hoist)
		if err != nil {
			return err
		}
		s, err := sim.New(params, c, plan)
		if err != nil {
			return err
		}
		res, err := s.Run(tr)
		if err != nil {
			return err
		}
		ap := c.TotalAreaPower()
		fmt.Fprintf(stdout, "%s,%d,%.0f,%.4f,%.1f,%.1f,%.4f,%.1f,%.3f,%.3f\n",
			c.Name, c.Clusters, c.OnChipMB, res.TimeMS, ap.AreaMM2, res.AvgPowerW,
			res.EnergyJ, float64(res.EvkBytes)/(1<<20),
			res.Utilization(arch.NTTU), res.Utilization(arch.HBM))
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fastsim:", err)
		os.Exit(1)
	}
}
