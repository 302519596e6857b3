package fast

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"

	"github.com/fastfhe/fast/internal/aether"
	"github.com/fastfhe/fast/internal/ckks"
)

// This file is the program planner: it compiles a Program against a Context
// into a Plan — the def-use DAG with rotation fan-out folded into hoisted
// groups, Add trees over a group's rotations fused into one rotate-and-sum,
// per-site key-switching methods chosen by the whole-program Aether entry
// point, and the admission unit weight the serving layer sheds against.
// Execution of a Plan lives in exec.go.

// PlanDecision is the planner's inspectable verdict for one key-switch-bearing
// DAG node (mul, rotate, conjugate). A fused site is reported on its
// rotations: they share one Group and Method, Hoist counts the whole group,
// and Fused names the Add tree's root register.
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
	// per-op method in the program) rather than chosen by the cost model.
	Pinned bool `json:"pinned"`
	// Group identifies the hoisted rotation group the node belongs to
	// (-1 for non-rotations). Nodes sharing a Group share one ModUp.
	Group int `json:"group"`
	// Hoist is the number of rotations sharing the group's decomposition
	// (1 for mul/conjugate and lone rotations).
	Hoist int `json:"hoist"`
	// Fused names the root register of the Add tree this rotation is a
	// leaf of ("" when it is not). The tree is one fused site: its
	// rotations' key products are summed before one ModDown pair, and only
	// the root register is written. Rotations of the group outside every
	// tree stay hoisted on the same decomposition.
	Fused string `json:"fused,omitempty"`
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
	fused    int  // fused site of a tree leaf or add, -1
	rescales bool // mul-family op with automatic rescale
}

// fusedSite is an Add tree over rotations of one hoist group, run as one
// rotate-and-sum that writes the tree's root register.
type fusedSite struct {
	root int   // node index of the root add
	leaf int   // its first rotation node: the group's source and method
	rots []int // the amounts summed, ascending
}

// keySwitches reports whether the node's op bears a key switch.
func (n *planNode) keySwitches() bool {
	switch n.op.Op {
	case "mul", "rotate", "conjugate":
		return true
	}
	return false
}

// Plan is a compiled Program: the DAG, the hoist groups and fused Add trees,
// the per-site method decisions and the admission unit weight. A Plan is
// immutable and safe for concurrent executions; it is bound to the Context
// that compiled it (the decisions depend on that context's parameters and key
// material).
type Plan struct {
	c           *Context
	prog        *Program
	nodes       []planNode
	groups      [][]int // node indices per hoist group
	fused       []fusedSite
	groupFused  [][]int // fused site indices per hoist group
	decisions   []PlanDecision
	inputLevels map[string]int
	units       float64
	keys        []ckks.KeyID // the evaluation keys the plan reads, each once
	keyUnits    float64      // what deriving one of them weighs
	passes      int
	fingerprint string
}

// Plan compiles a program against the context. inputLevels gives the level of
// each input ciphertext (missing entries assume the context's maximum level —
// pass the actual levels, the method decisions and unit weights depend on
// them). The returned Plan can be inspected (Decisions, Units) and executed
// (Execute, ExecuteBatch, ExecuteSequential).
//
// The plan is the one owner of which key-switch method each op runs: an op's
// pin (WithMethod in the builder, "method" on the wire) or else
// aether.PlanSites' verdict at this context's shape.
//
// Compilation performs Program.Validate plus plan-time checks: level
// exhaustion along the propagated DAG and pinned-KLSS on a context built
// without EnableKLSS.
func (c *Context) Plan(prog *Program, inputLevels map[string]int) (*Plan, error) {
	if prog == nil {
		return nil, fmt.Errorf("nil program: %w", ErrInvalidProgram)
	}
	if err := prog.Validate(); err != nil {
		return nil, err
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
		n := planNode{op: op, srcA: -1, srcB: -1, group: -1, fused: -1}
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
		if n.keySwitches() && op.MethodPinned {
			n.method, n.pinned = op.Method, true
			if op.Method == KLSS && !c.SupportsKLSS() {
				return nil, fmt.Errorf("op %d (%s): pinned method klss: %w", i, op.Op, ErrMethodUnavailable)
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

	p.fuseAddTrees(def)

	// Pass 4: one Aether site per key-switching mul/conjugate node and per
	// rotation group (the group's hoist width changes the verdict: hoisting
	// amortises ModUp, so KeyMult and ModDown dominate, paper Fig. 3; a
	// fused tree's rotations share one ModDown pair). PlanSites decides the
	// unpinned sites and prices all of them at this context's own key-switch
	// shape; the unit weight is the element-wise passes plus every site's
	// units, summed in node order.
	var sites []aether.Site
	for i := range p.nodes {
		n := &p.nodes[i]
		if !n.keySwitches() {
			p.passes++
			continue
		}
		d := PlanDecision{Node: i, Op: n.op.Op, Out: n.op.Out, Level: n.levelIn, Pinned: n.pinned, Group: n.group, Hoist: 1}
		site := aether.Site{Op: i, Level: n.levelIn, Hoist: 1, KLSS: c.SupportsKLSS(), Pinned: n.pinned, Method: n.method}
		if n.op.Op == "rotate" {
			g := p.groups[n.group]
			d.Hoist, site.Hoist = len(g), len(g)
			if n.fused >= 0 {
				d.Fused = p.nodes[p.fused[n.fused].root].op.Out
			}
			if fused := p.groupFused[n.group]; len(fused) > 0 {
				site.ModDowns = len(fused)
				for _, member := range g {
					if p.nodes[member].fused < 0 {
						site.ModDowns++
					}
				}
			}
		} else if n.rescales {
			p.passes++ // the fused rescale pass
		}
		if n.op.Op != "rotate" || p.groups[n.group][0] == i {
			sites = append(sites, site)
		}
		p.decisions = append(p.decisions, d)
	}
	cm := c.lit.KeySwitchShape()
	p.units = float64(p.passes) * cm.PassUnits()
	for _, sd := range aether.PlanSites(cm, sites) {
		p.units += sd.Units
		if n := &p.nodes[sd.OpIndex]; n.op.Op == "rotate" {
			for _, member := range p.groups[n.group] {
				p.nodes[member].method = sd.Method
			}
		} else {
			n.method = sd.Method
		}
	}
	for k := range p.decisions {
		n := &p.nodes[p.decisions[k].Node]
		p.decisions[k].Method = n.method
		id := ckks.KeyID{Method: n.method} // a mul's relinearisation key
		switch n.op.Op {
		case "rotate":
			id.GalEl = c.params.GaloisElement(n.op.R)
		case "conjugate":
			id.GalEl = c.params.ConjugationElement()
		}
		if !slices.Contains(p.keys, id) {
			p.keys = append(p.keys, id)
		}
	}
	p.keyUnits = cm.KeySwitch(Hybrid, cm.L, 1).Total()
	p.fingerprint = planFingerprint(p.prog, p.inputLevels)
	return p, nil
}

// fuseAddTrees is pass 3: it finds the Add trees that sum rotations of one
// hoist group and makes each a fused site. A tree qualifies when every leaf
// is a member of one group and each leaf and each inner add is read exactly
// once, by its parent in the tree (the program output counts as a read).
// Each maximal such tree becomes one site, named after its root register,
// which may be read any number of times; trees with a sub stay unfused.
func (p *Plan) fuseAddTrees(def map[string]int) {
	p.groupFused = make([][]int, len(p.groups))
	reads := make([]int, len(p.nodes))
	for _, n := range p.nodes {
		for _, src := range [2]int{n.srcA, n.srcB} {
			if src >= 0 {
				reads[src]++
			}
		}
	}
	if d, ok := def[p.prog.output]; ok {
		reads[d]++
	}
	// leaves[i] lists the rotations summed by the qualifying tree rooted at
	// add node i, left to right; inTree marks operands absorbed by a parent.
	leaves := make([][]int, len(p.nodes))
	inTree := make([]bool, len(p.nodes))
	operand := func(j int) []int {
		switch {
		case j < 0 || reads[j] != 1:
			return nil
		case p.nodes[j].op.Op == "rotate":
			return []int{j}
		}
		return leaves[j]
	}
	for i := range p.nodes {
		n := &p.nodes[i]
		if n.op.Op != "add" {
			continue
		}
		la, lb := operand(n.srcA), operand(n.srcB)
		if la != nil && lb != nil && p.nodes[la[0]].group == p.nodes[lb[0]].group {
			leaves[i] = append(append([]int(nil), la...), lb...)
			inTree[n.srcA], inTree[n.srcB] = true, true
		}
	}
	var mark func(i, site int)
	mark = func(i, site int) {
		p.nodes[i].fused = site
		if p.nodes[i].op.Op == "add" {
			mark(p.nodes[i].srcA, site)
			mark(p.nodes[i].srcB, site)
		}
	}
	for i, ls := range leaves {
		if ls == nil || inTree[i] {
			continue
		}
		fs := fusedSite{root: i, leaf: ls[0]}
		for _, l := range ls {
			fs.rots = append(fs.rots, p.nodes[l].op.R)
		}
		slices.Sort(fs.rots) // the sum is the same in any order; sorted, equal trees compare equal
		g := p.nodes[ls[0]].group
		p.groupFused[g] = append(p.groupFused[g], len(p.fused))
		mark(i, len(p.fused))
		p.fused = append(p.fused, fs)
	}
}

// PlanFingerprint computes the fingerprint Plan would assign for (prog,
// inputLevels) WITHOUT compiling: missing input levels resolve to the
// context's maximum level exactly as Plan resolves them, so the returned key
// equals plan.Fingerprint() of the corresponding Plan call. Serving layers use
// it as a cache key to skip recompilation of hot programs; it performs no
// validation, so an invalid program still hashes (and its Plan still fails).
// The fingerprint does not cover context parameters — cache per context.
func (c *Context) PlanFingerprint(prog *Program, inputLevels map[string]int) string {
	if prog == nil {
		return ""
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
	return planFingerprint(prog, resolved)
}

// planFingerprint hashes the program text and the resolved input levels into
// a stable identifier correlating observer records (Observer.PlanRecords,
// aether.decision.* tallies) with a program run. Shared by Plan and
// Context.PlanFingerprint so cache keys computed before compilation match the
// fingerprints stamped on compiled plans.
func planFingerprint(prog *Program, inputLevels map[string]int) string {
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
	return fmt.Sprintf("plan-%016x", h.Sum64())
}

// Program returns the program this plan compiles.
func (p *Plan) Program() *Program { return p.prog }

// Units returns the plan's admission weight in the cost model's 36-bit
// modular-operation equivalents: every key-switch site at its propagated
// level with hoist amortization — a fused Add tree's rotations sharing one
// ModDown pair — counted at the context's own shape (KeySwitchShape), plus
// the element-wise passes (a fused tree's adds stay counted as passes), plus
// a top-level hybrid key switch per key the plan reads that its context has
// not derived yet, read at call time: the units fall once it is derived.
func (p *Plan) Units() float64 {
	u := p.units
	for _, id := range p.keys {
		if p.c.keys.Pending(id) {
			u += p.keyUnits
		}
	}
	return u
}

// Decisions returns the planner's verdicts for every key-switch-bearing node,
// in program order.
func (p *Plan) Decisions() []PlanDecision {
	return append([]PlanDecision(nil), p.decisions...)
}

// Fingerprint returns a stable identifier for (program, input levels);
// observer plan records carry it so metrics correlate to a run.
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
