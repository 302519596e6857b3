package fast

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"

	"github.com/fastfhe/fast/internal/aether"
	"github.com/fastfhe/fast/internal/costmodel"
)

// This file is the program planner: it compiles a Program against a Context
// into a Plan — the def-use DAG with rotation fan-out folded into hoisted
// groups, per-site key-switching methods chosen by the whole-program Aether
// entry point, and the admission unit weight the serving layer sheds against.
// Execution of a Plan lives in exec.go.

// PlanDecision is the planner's inspectable verdict for one key-switch-bearing
// DAG node (mul, rotate, conjugate).
type PlanDecision struct {
	// Node is the op index in the program.
	Node int `json:"node"`
	// Op is the instruction name.
	Op string `json:"op"`
	// Out is the register the node writes.
	Out string `json:"out"`
	// Level is the operand level entering the node after whole-program level
	// propagation from the actual input levels.
	Level int `json:"level"`
	// Method is the key-switching backend the node executes with.
	Method Method `json:"method"`
	// Pinned reports that Method was fixed before the planner ran (an explicit
	// per-op method in the program, or a Plan-wide default from
	// PlanWithDefaultMethod) rather than chosen by the cost model.
	Pinned bool `json:"pinned"`
	// Group identifies the hoisted rotation group the node belongs to
	// (-1 for non-rotations). Nodes sharing a Group share one ModUp.
	Group int `json:"group"`
	// Hoist is the number of rotations sharing the group's decomposition
	// (1 for mul/conjugate and lone rotations).
	Hoist int `json:"hoist"`
}

// planNode is one compiled DAG node.
type planNode struct {
	op       ProgramOp
	srcA     int // defining node of A, -1 = program input
	srcB     int // defining node of B, -1 = input or unused
	levelIn  int // min operand level entering the node
	levelOut int // level of the node's (materialized) result
	method   Method
	pinned   bool
	group    int  // hoist group index, -1
	rescales bool // mul-family op with automatic rescale
}

// keySwitches reports whether the node's op bears a key switch.
func (n *planNode) keySwitches() bool {
	switch n.op.Op {
	case "mul", "rotate", "conjugate":
		return true
	}
	return false
}

// Plan is a compiled Program: the DAG, the hoist groups, the per-site method
// decisions and the admission unit weight. A Plan is
// immutable and safe for concurrent executions; it is bound to the Context
// that compiled it (the decisions depend on that context's parameters and key
// material).
type Plan struct {
	c           *Context
	prog        *Program
	nodes       []planNode
	groups      [][]int // node indices per hoist group
	decisions   []PlanDecision
	inputLevels map[string]int
	units       float64
	passes      int
	fingerprint string
}

// planConfig collects PlanOption knobs.
type planConfig struct {
	pinDefault *Method
}

// PlanOption configures Context.Plan.
type PlanOption func(*planConfig)

// PlanWithDefaultMethod pins every op that does not carry an explicit method
// to m instead of letting the whole-program planner choose ("no method"
// then means m, e.g. the context's default, not the cost model's pick).
// Hoist-group detection still applies; only the method selection is disabled.
func PlanWithDefaultMethod(m Method) PlanOption {
	return func(pc *planConfig) { pc.pinDefault = &m }
}

// Plan compiles a program against the context. inputLevels gives the level of
// each input ciphertext (missing entries assume the context's maximum level —
// pass the actual levels, the method decisions and unit weights depend on
// them). The returned Plan can be inspected (Decisions, Units) and executed
// (Execute, ExecuteBatch, ExecuteSequential).
//
// Compilation performs Program.Validate plus plan-time checks: level
// exhaustion along the propagated DAG and pinned-KLSS on a context built
// without EnableKLSS.
func (c *Context) Plan(prog *Program, inputLevels map[string]int, opts ...PlanOption) (*Plan, error) {
	if prog == nil {
		return nil, fmt.Errorf("nil program: %w", ErrInvalidProgram)
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	var pc planConfig
	for _, o := range opts {
		o(&pc)
	}
	if pc.pinDefault != nil && *pc.pinDefault == KLSS && !c.SupportsKLSS() {
		return nil, fmt.Errorf("fast: PlanWithDefaultMethod(KLSS) on a context without EnableKLSS: %w", ErrMethodUnavailable)
	}

	maxL := c.MaxLevel()
	p := &Plan{c: c, prog: prog, inputLevels: make(map[string]int, len(prog.inputs))}
	for _, in := range prog.inputs {
		lvl, ok := inputLevels[in]
		if !ok {
			lvl = maxL
		}
		p.inputLevels[in] = lvl
	}

	// Pass 1: def-use edges, level propagation, pinned methods.
	p.nodes = make([]planNode, len(prog.ops))
	def := make(map[string]int, len(prog.ops))
	regLevel := make(map[string]int, len(prog.ops)+len(prog.inputs))
	for in, lvl := range p.inputLevels {
		regLevel[in] = lvl
	}
	for i, op := range prog.ops {
		n := planNode{op: op, srcA: -1, srcB: -1, group: -1}
		if d, ok := def[op.A]; ok {
			n.srcA = d
		}
		n.levelIn = regLevel[op.A]
		switch op.Op {
		case "add", "sub", "mul":
			if d, ok := def[op.B]; ok {
				n.srcB = d
			}
			if lb := regLevel[op.B]; lb < n.levelIn {
				n.levelIn = lb
			}
		}
		n.levelOut = n.levelIn
		switch op.Op {
		case "mul", "mulplain", "mulconst":
			if !op.NoRescale {
				n.rescales = true
				if n.levelIn < 1 {
					return nil, fmt.Errorf("op %d (%s -> %s): automatic rescale below the chain bottom: %w", i, op.Op, op.Out, ErrLevelExhausted)
				}
				n.levelOut = n.levelIn - 1
			}
		case "rescale":
			if n.levelIn < 1 {
				return nil, fmt.Errorf("op %d (%s -> %s): rescale below the chain bottom: %w", i, op.Op, op.Out, ErrLevelExhausted)
			}
			n.levelOut = n.levelIn - 1
		}
		if n.keySwitches() {
			switch {
			case op.MethodPinned:
				n.method, n.pinned = op.Method, true
				if op.Method == KLSS && !c.SupportsKLSS() {
					return nil, fmt.Errorf("op %d (%s): pinned method klss: %w", i, op.Op, ErrMethodUnavailable)
				}
			case pc.pinDefault != nil:
				n.method, n.pinned = *pc.pinDefault, true
			}
		}
		def[op.Out] = i
		regLevel[op.Out] = n.levelOut
		p.nodes[i] = n
	}

	// Pass 2: hoist groups — rotations of one SSA definition (or one input
	// register) at the same level and with compatible method constraints share
	// a decomposition. The group key keeps pinned-hybrid, pinned-klss and
	// planner-decided rotations apart so a pin never leaks onto its neighbors.
	type groupKey struct {
		src    int
		input  string
		level  int
		pinned bool
		method Method
	}
	groupOf := make(map[groupKey]int)
	for i := range p.nodes {
		n := &p.nodes[i]
		if n.op.Op != "rotate" {
			continue
		}
		k := groupKey{src: n.srcA, level: n.levelIn, pinned: n.pinned}
		if n.srcA == -1 {
			k.input = n.op.A
		}
		if n.pinned {
			k.method = n.method
		}
		gi, ok := groupOf[k]
		if !ok {
			gi = len(p.groups)
			p.groups = append(p.groups, nil)
			groupOf[k] = gi
		}
		p.groups[gi] = append(p.groups[gi], i)
		n.group = gi
	}

	// Pass 3: whole-program method selection for the undecided sites. One
	// Aether site per undecided mul/conjugate node and per undecided rotation
	// group (the group's hoist width changes the verdict: hoisting erodes the
	// KLSS advantage because KeyMult dominates, paper Fig. 2).
	cm := costmodel.ForContext(c.params.LogN(), maxL)
	var sites []aether.Site
	for i := range p.nodes {
		n := &p.nodes[i]
		if !n.keySwitches() || n.pinned {
			continue
		}
		if n.op.Op == "rotate" {
			if p.groups[n.group][0] != i {
				continue // decided with the group's first member
			}
			sites = append(sites, aether.Site{Op: i, Level: n.levelIn, Hoist: len(p.groups[n.group]), KLSS: c.SupportsKLSS()})
			continue
		}
		sites = append(sites, aether.Site{Op: i, Level: n.levelIn, Hoist: 1, KLSS: c.SupportsKLSS()})
	}
	for _, d := range aether.PlanSites(cm, sites) {
		n := &p.nodes[d.OpIndex]
		if n.op.Op == "rotate" {
			for _, member := range p.groups[n.group] {
				p.nodes[member].method = d.Method
			}
		} else {
			n.method = d.Method
		}
	}

	// Decisions, unit weight, fingerprint.
	var costSites []costmodel.SiteCost
	for i := range p.nodes {
		n := &p.nodes[i]
		if !n.keySwitches() {
			p.passes++
			continue
		}
		d := PlanDecision{
			Node: i, Op: n.op.Op, Out: n.op.Out, Level: n.levelIn,
			Method: n.method, Pinned: n.pinned, Group: n.group, Hoist: 1,
		}
		if n.op.Op == "rotate" {
			d.Hoist = len(p.groups[n.group])
			if p.groups[n.group][0] == i {
				costSites = append(costSites, costmodel.SiteCost{Method: n.method, Level: n.levelIn, Hoist: d.Hoist})
			}
		} else {
			costSites = append(costSites, costmodel.SiteCost{Method: n.method, Level: n.levelIn, Hoist: 1})
			if n.rescales {
				p.passes++ // the fused rescale pass
			}
		}
		p.decisions = append(p.decisions, d)
	}
	p.units = cm.PlanUnits(costSites, p.passes)
	p.fingerprint = planFingerprint(p.prog, p.inputLevels, pc)
	return p, nil
}

// PlanFingerprint computes the fingerprint Plan would assign for (prog,
// inputLevels, opts) WITHOUT compiling: missing input levels resolve to the
// context's maximum level exactly as Plan resolves them, so the returned key
// equals plan.Fingerprint() of the corresponding Plan call. Serving layers use
// it as a cache key to skip recompilation of hot programs; it performs no
// validation, so an invalid program still hashes (and its Plan still fails).
// The fingerprint does not cover context parameters — cache per context.
func (c *Context) PlanFingerprint(prog *Program, inputLevels map[string]int, opts ...PlanOption) string {
	if prog == nil {
		return ""
	}
	var pc planConfig
	for _, o := range opts {
		o(&pc)
	}
	maxL := c.MaxLevel()
	resolved := make(map[string]int, len(prog.inputs))
	for _, in := range prog.inputs {
		lvl, ok := inputLevels[in]
		if !ok {
			lvl = maxL
		}
		resolved[in] = lvl
	}
	return planFingerprint(prog, resolved, pc)
}

// planFingerprint hashes the program text, the resolved input levels and
// the plan-wide default into a stable identifier correlating observer records
// (Observer.PlanRecords, aether.decision.* tallies) with a program run.
// Shared by Plan and Context.PlanFingerprint so cache keys computed before
// compilation match the fingerprints stamped on compiled plans.
func planFingerprint(prog *Program, inputLevels map[string]int, pc planConfig) string {
	h := fnv.New64a()
	if raw, err := json.Marshal(prog); err == nil {
		_, _ = h.Write(raw)
	}
	names := make([]string, 0, len(inputLevels))
	for in := range inputLevels {
		names = append(names, in)
	}
	sort.Strings(names)
	for _, in := range names {
		fmt.Fprintf(h, "|%s@%d", in, inputLevels[in])
	}
	if pc.pinDefault != nil {
		fmt.Fprintf(h, "|pin:%s", pc.pinDefault.String())
	}
	return fmt.Sprintf("plan-%016x", h.Sum64())
}

// Program returns the program this plan compiles.
func (p *Plan) Program() *Program { return p.prog }

// Units returns the plan's admission weight in the cost model's 36-bit
// modular-operation equivalents: every key-switch site at its propagated
// level with hoist amortization, plus the element-wise passes.
func (p *Plan) Units() float64 { return p.units }

// Decisions returns the planner's verdicts for every key-switch-bearing node,
// in program order.
func (p *Plan) Decisions() []PlanDecision {
	return append([]PlanDecision(nil), p.decisions...)
}

// Fingerprint returns a stable identifier for (program, input levels, plan
// options); observer plan records carry it so metrics correlate to a run.
func (p *Plan) Fingerprint() string { return p.fingerprint }

// HoistGroups returns the rotation fan-out groups the planner detected: each
// inner slice lists the program op indices sharing one hoisted decomposition.
func (p *Plan) HoistGroups() [][]int {
	out := make([][]int, len(p.groups))
	for i, g := range p.groups {
		out[i] = append([]int(nil), g...)
	}
	return out
}

// InputLevels returns the input levels the plan was compiled for.
func (p *Plan) InputLevels() map[string]int {
	out := make(map[string]int, len(p.inputLevels))
	for k, v := range p.inputLevels {
		out[k] = v
	}
	return out
}
