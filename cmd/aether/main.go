// Command aether is the offline key-switching planner (paper §4.1.1): it
// analyses a workload's FHE operation flow against a target accelerator,
// prints the Methods Candidate Table summary, and writes the Aether
// configuration file that the Hemera runtime (and the simulator) consume.
//
// Usage:
//
//	aether -workload bootstrap|helr256|helr1024|resnet20 \
//	       [-config fast|sharp|sharp-lm|sharp-8c|sharp-lm8c|fast-notbm|fast-36] \
//	       [-o aether.json] [-mct]
//
// The plan's decision tallies are published as metrics by
// `fastsim -http`, which simulates the same plan.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/fastfhe/fast/internal/baselines"
	"github.com/fastfhe/fast/internal/costmodel"
	"github.com/fastfhe/fast/internal/sim"
	"github.com/fastfhe/fast/internal/workloads"
)

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("aether", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "bootstrap", "workload to analyse: "+workloads.Names())
	config := fs.String("config", "fast", "target accelerator: "+baselines.Names())
	out := fs.String("o", "", "write the Aether configuration file here (default stdout)")
	showMCT := fs.Bool("mct", false, "print the Methods Candidate Table")
	if err := fs.Parse(args); err != nil {
		return err
	}

	tr, err := workloads.ByName(*workload)
	if err != nil {
		return err
	}
	cfg, err := baselines.ByName(*config)
	if err != nil {
		return err
	}
	plan, mct, err := sim.Plan(costmodel.SetII(), cfg, tr, sim.ModeAuto)
	if err != nil {
		return err
	}

	if *showMCT {
		fmt.Fprintln(stderr, "op  ct  level hoist times  cost_hy(M)  cost_kl(M)  key_hy(MB)  key_kl(MB)")
		for _, e := range mct {
			fmt.Fprintf(stderr, "%3d %3d %5d %5d %5d  %10.1f  %10.1f  %10.1f  %10.1f\n",
				e.OpIndex, e.CtID, e.Level, e.Hoist, e.Times,
				e.Cost[0]/1e6, e.Cost[1]/1e6,
				float64(e.KeySize[0])/(1<<20), float64(e.KeySize[1])/(1<<20))
		}
	}

	var hybrid, klss, hoisted int
	for _, d := range plan.Decisions {
		if d.Method == costmodel.KLSS {
			klss++
		} else {
			hybrid++
		}
		if d.Hoist > 1 {
			hoisted++
		}
	}
	fmt.Fprintf(stderr, "aether: %s on %s: %d key-switch ops (%d hybrid, %d klss, %d hoisted)\n",
		tr.Name, cfg.Name, len(plan.Decisions), hybrid, klss, hoisted)

	if *out == "" {
		return plan.Save(stdout)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := plan.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "aether:", err)
		os.Exit(1)
	}
}
