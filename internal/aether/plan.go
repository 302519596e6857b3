package aether

import "github.com/fastfhe/fast/internal/costmodel"

// Site describes one key-switching site of a program DAG for the online
// whole-program planner: a DAG node (or hoist group of rotations sharing one
// decomposition) that needs a method and a price.
type Site struct {
	// Op is the caller's node identifier, echoed into Decision.OpIndex.
	Op int
	// Level is the operand level entering the site.
	Level int
	// Hoist is the number of rotations sharing the site's decomposition
	// (1 for multiplications, conjugations and lone rotations).
	Hoist int
	// KLSS reports whether the 60-bit key chain is available at this site;
	// when false an unpinned site gets hybrid regardless of cost.
	KLSS bool
	// Pinned fixes the site's method to Method: PlanSites then only prices it.
	Pinned bool
	Method costmodel.Method
}

// SiteDecision is PlanSites' verdict for one site: the decision (level and
// hoist clamped to the shape) and the modular-operation units of the
// chosen method there, the site's share of the program's admission weight.
type SiteDecision struct {
	Decision
	Units float64
}

// PlanSites is the online counterpart of Analyzer.Analyze for functional
// serving: given the whole program's key-switch sites at their propagated
// levels and hoist widths, it prices each site at the context's own shape —
// the rows ckks.KeySwitcher runs under each method (costmodel.Shape.KeySwitch),
// not the paper's accelerator, which the MCT and the simulator keep — picks
// the cheaper method per site, and prices every site, pinned ones included,
// with the same call.
//
// KLSS must save more than 5% of the modular operations to be chosen; ties
// within 5% go to hybrid. That is not the offline selection's minimal-key
// tie-break. Online, the 5% margin keeps a verdict from flipping on model
// error near the crossover, and hybrid is the method every context has keys
// for and the one DecisionFor falls back to. A context whose KLSS runs
// hybrid's digits over as many wider primes (every context fast.NewContext
// builds) therefore never gets KLSS from the planner, only by a pin.
//
// The decision is deterministic in (shape, sites), the same on every host and
// kernel path: two identical programs planned against one context always
// agree, which the differential equivalence suite relies on to replay planned
// executions step by step.
func PlanSites(s costmodel.Shape, sites []Site) []SiteDecision {
	out := make([]SiteDecision, len(sites))
	for i, st := range sites {
		level, hoist := min(max(st.Level, 0), s.L), max(st.Hoist, 1)
		m := costmodel.Hybrid
		switch {
		case st.Pinned:
			m = st.Method
		case st.KLSS && s.KeySwitch(costmodel.KLSS, level, hoist).Total() < s.KeySwitch(costmodel.Hybrid, level, hoist).Total()*0.95:
			m = costmodel.KLSS
		}
		out[i] = SiteDecision{
			Decision: Decision{OpIndex: st.Op, Level: level, Method: m, Hoist: hoist},
			Units:    s.KeySwitch(m, level, hoist).Total(),
		}
	}
	return out
}
