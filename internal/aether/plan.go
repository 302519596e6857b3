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
// hoist clamped to the parameter set) and the modular-operation units of the
// chosen method there, the site's share of the program's admission weight.
type SiteDecision struct {
	Decision
	Units float64
}

// PlanSites is the online counterpart of Analyzer.Analyze for functional
// serving: given the whole program's key-switch sites at their propagated
// levels and hoist widths, it picks the method minimizing modeled modular
// operations per site, and prices every site, pinned ones included, with
// the same KeySwitch call.
//
// KLSS must save more than 5% of the modular operations to be chosen; ties
// within 5% go to hybrid. That is not the offline selection's minimal-key
// tie-break: below level α KLSS keys are the smaller ones, and the offline
// rule would pick KLSS there. Online, the 5% margin keeps a verdict from
// flipping on model error near the crossover, and hybrid is the method every
// context has keys for and the one DecisionFor falls back to.
//
// The decision is deterministic in (params, sites): two identical programs
// planned against the same context always agree, which the differential
// equivalence suite relies on to replay planned executions step by step.
func PlanSites(p costmodel.Params, sites []Site) []SiteDecision {
	out := make([]SiteDecision, len(sites))
	for i, s := range sites {
		level, hoist := min(max(s.Level, 0), p.L), max(s.Hoist, 1)
		m := costmodel.Hybrid
		switch {
		case s.Pinned:
			m = s.Method
		case s.KLSS && p.KeySwitch(costmodel.KLSS, level, hoist).Total() < p.KeySwitch(costmodel.Hybrid, level, hoist).Total()*0.95:
			m = costmodel.KLSS
		}
		out[i] = SiteDecision{
			Decision: Decision{OpIndex: s.Op, Level: level, Method: m, Hoist: hoist},
			Units:    p.KeySwitch(m, level, hoist).Total(),
		}
	}
	return out
}
