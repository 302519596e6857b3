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
	// ModDowns is the number of ModDown pairs the site's rotations end in
	// when fewer than Hoist: the fused flag. An Add tree over several of the
	// group's rotations sums their key products in the PQ basis and runs one
	// pair for them all (costmodel.Shape.Hoisted). 0 is one pair per rotation.
	ModDowns int
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
// levels, hoist widths and ModDown counts, it prices each site at the
// context's own shape — the rows ckks.KeySwitcher runs under each method
// (costmodel.Shape.Hoisted), not the paper's accelerator, which the MCT and
// the simulator keep — picks the cheaper method per site, and prices every
// site, pinned ones included, with the same call.
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
		downs := hoist
		if st.ModDowns > 0 {
			downs = min(st.ModDowns, hoist)
		}
		units := func(m costmodel.Method) float64 { return s.Hoisted(m, level, hoist, downs).Total() }
		m := costmodel.Hybrid
		switch {
		case st.Pinned:
			m = st.Method
		case st.KLSS && units(costmodel.KLSS) < units(costmodel.Hybrid)*0.95:
			m = costmodel.KLSS
		}
		out[i] = SiteDecision{
			Decision: Decision{OpIndex: st.Op, Level: level, Method: m, Hoist: hoist},
			Units:    units(m),
		}
	}
	return out
}
