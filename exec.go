package fast

import (
	"context"
	"fmt"

	"github.com/fastfhe/fast/internal/obs"
)

// This file executes Plans: one run at a time (Execute, the executor;
// ExecuteBatch is a loop over it), and the sequential reference
// interpretation the differential suite compares against. Hoisting happens
// within one run's program, never across runs: two runs share no
// decomposition, even when they read the same ciphertext.
//
// Bit-identity contract: Execute and ExecuteSequential produce byte-for-
// byte identical ciphertexts for the same plan and inputs, and a run's bytes
// do not depend on the other runs of its batch. Three properties make this
// hold: (1) every planned rotation — singletons included — runs through the
// hoisted kernel, whose per-rotation output is independent of the other
// rotations sharing the decomposition; (2) a fused Add tree runs as one
// rotate-and-sum in both, whose output depends only on the source and the
// multiset of its rotations; (3) method decisions are deterministic in
// (program, input levels, context), so both interpreters resolve the same
// backend at every site.

// Run is one program execution in a batch: a plan, its input ciphertexts and
// a cancellation context in; the output ciphertext or a typed error out.
type Run struct {
	// Plan is the compiled program (from Context.Plan on the same context the
	// batch executes on).
	Plan *Plan
	// Inputs maps declared input registers to ciphertexts at the levels the
	// plan was compiled for.
	Inputs map[string]*Ciphertext
	// Ctx cancels this run independently of its batchmates (nil = Background).
	// A request ID carried by Ctx (see ContextWithRequestID) is propagated to
	// the run's trace spans and recorded on its PlanRecord.
	Ctx context.Context
	// Out is the output ciphertext (set on success).
	Out *Ciphertext
	// Err is the run's failure, wrapping the package taxonomy (set on error).
	Err error

	regs map[string]*Ciphertext // register file
}

// Execute runs plan against inputs under ctx and returns the output
// ciphertext. A request ID carried by ctx (see ContextWithRequestID) tags the
// run's trace spans and its PlanRecord.
func (c *Context) Execute(ctx context.Context, plan *Plan, inputs map[string]*Ciphertext) (*Ciphertext, error) {
	run := &Run{Plan: plan, Inputs: inputs, Ctx: ctx}
	if c.prepareRun(run) {
		c.execRun(run)
		c.recordRun(run)
	}
	return run.Out, run.Err
}

// prepareRun validates a run against the batch's context and initializes its
// register file. Returns false (with run.Err set) when the run cannot start.
func (c *Context) prepareRun(run *Run) bool {
	if run.Plan == nil {
		run.Err = fmt.Errorf("fast: run without a plan: %w", ErrInvalidProgram)
		return false
	}
	if run.Plan.c != c {
		run.Err = fmt.Errorf("fast: plan was compiled on a different context: %w", ErrInvalidProgram)
		return false
	}
	if run.Ctx == nil {
		run.Ctx = context.Background()
	}
	for _, in := range run.Plan.prog.inputs {
		ct, ok := run.Inputs[in]
		if !ok {
			run.Err = fmt.Errorf("fast: missing ciphertext for input %q: %w", in, ErrInvalidProgram)
			return false
		}
		if err := c.validate(ct); err != nil {
			run.Err = fmt.Errorf("fast: input %q: %w", in, err)
			return false
		}
		if want := run.Plan.inputLevels[in]; ct.Level() != want {
			run.Err = fmt.Errorf("fast: input %q at level %d, plan compiled for level %d: %w", in, ct.Level(), want, ErrLevelMismatch)
			return false
		}
	}
	run.regs = make(map[string]*Ciphertext, len(run.Plan.nodes)+len(run.Inputs))
	for in, ct := range run.Inputs {
		run.regs[in] = ct
	}
	return true
}

// failNode records a node failure on the run, attributing cancellation to the
// run's own context when that is the cause.
func (run *Run) failNode(node int, err error) {
	op := run.Plan.nodes[node].op
	switch ctxErr := run.Ctx.Err(); ctxErr {
	case nil:
	case context.DeadlineExceeded:
		err = fmt.Errorf("%w: %w", ErrDeadline, ctxErr)
	default:
		err = fmt.Errorf("%w: %w", ErrCanceled, ctxErr)
	}
	run.Err = fmt.Errorf("op %d (%s -> %s): %w", node, op.Op, op.Out, err)
}

// ExecuteBatch runs each of runs through Execute, in order, and reports its
// result on Run.Out / Run.Err. Runs share nothing but the context and its
// keys, and each keeps its own cancellation: a canceled run fails with its
// own ErrCanceled/ErrDeadline while the runs after it proceed.
func (c *Context) ExecuteBatch(runs []*Run) {
	for _, run := range runs {
		if run != nil {
			run.Out, run.Err = c.Execute(run.Ctx, run.Plan, run.Inputs)
		}
	}
}

// execRun walks one prepared run's DAG in node order: a hoist group runs at
// its first member, a fused add with its group, any other node on its own.
func (c *Context) execRun(run *Run) {
	plan := run.Plan
	for i := range plan.nodes {
		n := &plan.nodes[i]
		if n.op.Op == "add" && n.fused >= 0 {
			continue // written by its group's step
		}
		if n.op.Op == "rotate" && plan.groups[n.group][0] != i {
			continue // run with the group's first member
		}
		if ctxErr := run.Ctx.Err(); ctxErr != nil {
			run.failNode(i, ctxErr)
			return
		}
		if n.op.Op == "rotate" {
			c.execGroupStep(run, n.group)
		} else {
			c.execSoloStep(run, i)
		}
		if run.Err != nil {
			return
		}
	}
	run.Out = run.regs[plan.prog.output]
}

// execGroupStep runs one hoist group of a run as one call on one
// decomposition (evk accounting, metrics and cancellation behave exactly as
// a RotateHoisted call would): the group's rotations outside a fused tree,
// and one rotate-and-sum per fused tree over it.
func (c *Context) execGroupStep(run *Run, group int) {
	plan := run.Plan
	g := plan.groups[group]
	lead := &plan.nodes[g[0]]
	var rots []int
	for _, node := range g {
		if n := &plan.nodes[node]; n.fused < 0 {
			rots = append(rots, n.op.R)
		}
	}
	fused := plan.groupFused[group]
	sums := make([][]int, len(fused))
	for i, fi := range fused {
		sums[i] = plan.fused[fi].rots
	}
	outs, sumOuts, err := c.rotateHoistedSums(run.regs[lead.op.A], rots, sums, WithContext(run.Ctx), WithMethod(lead.method))
	if err != nil {
		run.failNode(g[0], err)
		return
	}
	for _, node := range g {
		if n := &plan.nodes[node]; n.fused < 0 {
			run.regs[n.op.Out] = outs[n.op.R]
		}
	}
	for i, fi := range fused {
		run.regs[plan.nodes[plan.fused[fi].root].op.Out] = sumOuts[i]
	}
}

// execSoloStep runs one non-group node of one run.
func (c *Context) execSoloStep(run *Run, node int) {
	n := &run.Plan.nodes[node]
	op := n.op
	a, b := run.regs[op.A], run.regs[op.B] // b is nil for one-operand ops

	// One option list for every op: an op ignores the options it has no use
	// for (the method on a node without a key switch is the zero value).
	opts := []OpOption{WithContext(run.Ctx), WithMethod(n.method)}
	if op.NoRescale {
		opts = append(opts, NoRescale())
	}
	var out *Ciphertext
	var err error
	switch op.Op {
	case "add":
		out, err = c.Add(a, b)
	case "sub":
		out, err = c.Sub(a, b)
	case "mul":
		out, err = c.Mul(a, b, opts...)
	case "mulplain":
		out, err = c.MulPlain(a, op.Values, opts...)
	case "addplain":
		out, err = c.AddPlain(a, op.Values)
	case "mulconst":
		out, err = c.MulConst(a, op.Value, opts...)
	case "addconst":
		out, err = c.AddConst(a, op.Value)
	case "rescale":
		out, err = c.Rescale(a, opts...)
	case "conjugate":
		out, err = c.Conjugate(a, opts...)
	default:
		err = fmt.Errorf("unknown op %q: %w", op.Op, ErrInvalidProgram)
	}
	if err != nil {
		run.failNode(node, err)
		return
	}
	run.regs[op.Out] = out
}

// ExecuteSequential interprets the plan straight-line in program order — the
// v1 interpretation, kept as the differential reference and the baseline the
// planner benchmark compares against. Every rotation outside a fused tree
// runs as a singleton hoisted call with the plan's method decision, and each
// fused tree as one rotate-and-sum at its root add, which by the
// bit-identity contract (see top of file) yields byte-identical outputs to
// Execute.
func (c *Context) ExecuteSequential(ctx context.Context, plan *Plan, inputs map[string]*Ciphertext) (*Ciphertext, error) {
	run := &Run{Plan: plan, Inputs: inputs, Ctx: ctx}
	if !c.prepareRun(run) {
		return nil, run.Err
	}
	for i := range plan.nodes {
		n := &plan.nodes[i]
		op := n.op
		if n.fused >= 0 {
			// A leaf or inner add of a fused tree: summed at the root.
			if fs := &plan.fused[n.fused]; fs.root == i {
				leaf := &plan.nodes[fs.leaf]
				_, sums, err := c.rotateHoistedSums(run.regs[leaf.op.A], nil, [][]int{fs.rots}, WithContext(run.Ctx), WithMethod(leaf.method))
				if err != nil {
					run.failNode(i, err)
					return nil, run.Err
				}
				run.regs[op.Out] = sums[0]
			}
			continue
		}
		if op.Op == "rotate" {
			src := run.regs[op.A]
			outs, err := c.RotateHoisted(src, []int{op.R}, WithContext(run.Ctx), WithMethod(n.method))
			if err != nil {
				run.failNode(i, err)
				return nil, run.Err
			}
			run.regs[op.Out] = outs[op.R]
			continue
		}
		c.execSoloStep(run, i)
		if run.Err != nil {
			return nil, run.Err
		}
	}
	return run.regs[plan.prog.output], nil
}

// recordRun tallies the planner's decisions on the observer: one
// aether.decision.{hybrid,klss} count per executed key-switch site,
// aether.decision.hoisted per rotation served from a shared decomposition,
// plus the run's PlanRecord correlating the metrics with a fingerprinted
// program execution.
func (c *Context) recordRun(run *Run) {
	if c.observer == nil {
		return
	}
	reg := c.observer.Registry()
	plan := run.Plan
	for _, d := range plan.decisions {
		if d.Op == "rotate" && plan.groups[d.Group][0] != d.Node {
			// The group's first member accounts for the whole site.
			continue
		}
		switch d.Method {
		case KLSS:
			reg.Counter("aether.decision.klss").Inc()
		default:
			reg.Counter("aether.decision.hybrid").Inc()
		}
		if d.Op == "rotate" && d.Hoist >= 2 {
			reg.Counter("aether.decision.hoisted").Add(uint64(d.Hoist))
		}
	}
	c.observer.recordPlan(PlanRecord{
		Fingerprint: plan.fingerprint,
		Units:       plan.units,
		Decisions:   plan.Decisions(),
		RequestID:   obs.RequestIDFrom(run.Ctx),
		Err:         run.Err != nil,
	})
}
