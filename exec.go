package fast

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"github.com/fastfhe/fast/internal/obs"
)

// This file executes Plans: single runs, micro-batches of concurrently
// admitted runs (sharing hoisted decompositions across requests when their
// rotation groups read identical input ciphertexts), and the sequential
// reference interpretation the differential suite compares against.
//
// Bit-identity contract: ExecuteBatch and ExecuteSequential produce byte-for-
// byte identical ciphertexts for the same plan and inputs. Three properties
// make this hold: (1) every planned rotation — singletons included — runs
// through the hoisted kernel, whose per-rotation output is independent of the
// other rotations sharing the decomposition; (2) a fused Add tree runs as one
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
	// InputIDs optionally names each input's identity (e.g. a digest of the
	// wire bytes the daemon decoded it from). Two runs' rotation groups merge
	// into one hoisted decomposition only when they read inputs with equal
	// IDs at equal level and method; without IDs, pointer identity of the
	// *Ciphertext is used.
	InputIDs map[string]string
	// Ctx cancels this run independently of its batchmates (nil = Background).
	// A request ID carried by Ctx (see ContextWithRequestID) is propagated to
	// the run's trace spans and recorded on the batch's PlanRecords.
	Ctx context.Context
	// Out is the output ciphertext (set on success).
	Out *Ciphertext
	// Err is the run's failure, wrapping the package taxonomy (set on error).
	Err error
	// Batch is the observer-wide micro-batch sequence number this run executed
	// under (set by ExecuteBatch on an observed context; 0 otherwise). Equal
	// Batch values identify runs coalesced into one batch.
	Batch uint64

	regs map[string]*Ciphertext // register file
}

// Execute compiles-and-runs in one call for a single request: it executes
// plan against inputs under ctx and returns the output ciphertext. Shorthand
// for a one-run ExecuteBatch.
func (c *Context) Execute(ctx context.Context, plan *Plan, inputs map[string]*Ciphertext) (*Ciphertext, error) {
	run := &Run{Plan: plan, Inputs: inputs, Ctx: ctx}
	c.ExecuteBatch([]*Run{run})
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
	if ctxErr := run.Ctx.Err(); ctxErr != nil {
		err = wrapRunCtxErr(ctxErr)
	}
	run.Err = fmt.Errorf("op %d (%s -> %s): %w", node, op.Op, op.Out, err)
}

func wrapRunCtxErr(ctxErr error) error {
	if ctxErr == context.DeadlineExceeded {
		return fmt.Errorf("%w: %w", ErrDeadline, ctxErr)
	}
	return fmt.Errorf("%w: %w", ErrCanceled, ctxErr)
}

// mergeKey identifies a hoisted rotation group two runs may share: the input
// it rotates — by the caller-supplied ID or, without one, by the ciphertext
// itself (exactly one of id and ct is set, so the two kinds never collide) —
// at one level under one method.
type mergeKey struct {
	id     string
	ct     *Ciphertext
	level  int
	method Method
}

// inputKey resolves the merge identity of a run's input register.
func (run *Run) inputKey(reg string, level int, method Method) mergeKey {
	if id := run.InputIDs[reg]; id != "" {
		return mergeKey{id: id, level: level, method: method}
	}
	return mergeKey{ct: run.Inputs[reg], level: level, method: method}
}

// batchStep is one schedulable unit: a hoisted rotation group (possibly
// merged across runs) or one solo node of one run.
type batchStep struct {
	members []stepMember
	group   bool
	method  Method
}

// stepMember is one run's share of a step: for groups, every group-member
// node of that run; for solo steps, the single node.
type stepMember struct {
	run   *Run
	nodes []int
}

// ExecuteBatch executes a micro-batch of runs on the shared context. The
// scheduler walks all runs' DAG nodes in deterministic (run, node) order and
// merges rotation groups that read identical input ciphertexts at the same
// level and method into one hoisted decomposition — one ModUp serving every
// member request. Each run keeps its own cancellation: a canceled run fails
// with its own ErrCanceled/ErrDeadline at its next node while batchmates
// proceed; a merged kernel is canceled only when every owning run is done.
//
// Results and errors are reported per run on Run.Out / Run.Err. Runs in one
// batch must share input *levels* only if they share input bytes; otherwise
// they are fully independent.
func (c *Context) ExecuteBatch(runs []*Run) {
	var steps []batchStep
	stepOf := make(map[mergeKey]int)
	for _, run := range runs {
		if run == nil || !c.prepareRun(run) {
			continue
		}
		plan := run.Plan
		for i := range plan.nodes {
			n := &plan.nodes[i]
			if n.op.Op == "add" && n.fused >= 0 {
				continue // written by its group's step
			}
			if n.op.Op == "rotate" {
				g := plan.groups[n.group]
				if g[0] != i {
					continue // scheduled with the group's first member
				}
				st := batchStep{group: true, method: n.method, members: []stepMember{{run: run, nodes: append([]int(nil), g...)}}}
				// Merge only groups rotating a program input: identical
				// bytes in, deterministic kernels, identical bytes out.
				if n.srcA == -1 {
					k := run.inputKey(n.op.A, n.levelIn, n.method)
					if si, ok := stepOf[k]; ok {
						steps[si].members = append(steps[si].members, st.members[0])
						continue
					}
					stepOf[k] = len(steps)
				}
				steps = append(steps, st)
				continue
			}
			steps = append(steps, batchStep{members: []stepMember{{run: run, nodes: []int{i}}}})
		}
	}

	merged := 0
	for si := range steps {
		st := &steps[si]
		// Drop members whose run already failed or whose context is done.
		alive := st.members[:0]
		for _, m := range st.members {
			if m.run.Err != nil {
				continue
			}
			if ctxErr := m.run.Ctx.Err(); ctxErr != nil {
				m.run.failNode(m.nodes[0], wrapRunCtxErr(ctxErr))
				continue
			}
			alive = append(alive, m)
		}
		st.members = alive
		if len(st.members) == 0 {
			continue
		}
		if st.group {
			if len(st.members) > 1 {
				for _, m := range st.members {
					merged += len(m.nodes)
				}
			}
			c.execGroupStep(st)
		} else {
			c.execSoloStep(st.members[0].run, st.members[0].nodes[0])
		}
	}

	for _, run := range runs {
		if run != nil && run.Err == nil && run.regs != nil {
			run.Out = run.regs[run.Plan.prog.output]
		}
	}
	c.recordBatch(runs, merged)
}

// execGroupStep runs one hoisted rotation group, possibly shared by several
// runs, as one call on one decomposition (evk accounting, metrics and
// cancellation behave exactly as a RotateHoisted call would): the union of
// the members' rotations outside a fused tree, and one rotate-and-sum per
// distinct multiset of rotations the members' fused trees sum — identical
// runs share it, as they share their loose rotations.
func (c *Context) execGroupStep(st *batchStep) {
	lead := st.members[0]
	src := lead.run.regs[lead.run.Plan.nodes[lead.nodes[0]].op.A]
	rotSet := make(map[int]bool)
	var sums [][]int
	var sumIdx []int // per member's fused tree, in member order
	sumOf := make(map[string]int)
	for _, m := range st.members {
		plan := m.run.Plan
		for _, node := range m.nodes {
			if n := &plan.nodes[node]; n.fused < 0 {
				rotSet[n.op.R] = true
			}
		}
		for _, fi := range plan.groupFused[plan.nodes[m.nodes[0]].group] {
			rots := plan.fused[fi].rots
			key := fmt.Sprint(rots)
			si, ok := sumOf[key]
			if !ok {
				si = len(sums)
				sumOf[key] = si
				sums = append(sums, rots)
			}
			sumIdx = append(sumIdx, si)
		}
	}
	rots := make([]int, 0, len(rotSet))
	for r := range rotSet {
		rots = append(rots, r)
	}
	sort.Ints(rots)

	ctxs := make([]context.Context, len(st.members))
	for i, m := range st.members {
		ctxs[i] = m.run.Ctx
	}
	mctx, stop := mergedContext(ctxs)
	defer stop()
	outs, sumOuts, err := c.rotateHoistedSums(src, rots, sums, WithContext(mctx), WithMethod(st.method))
	if err != nil {
		for _, m := range st.members {
			m.run.failNode(m.nodes[0], err)
		}
		return
	}
	for _, m := range st.members {
		plan := m.run.Plan
		for _, node := range m.nodes {
			if n := &plan.nodes[node]; n.fused < 0 {
				m.run.regs[n.op.Out] = outs[n.op.R]
			}
		}
		for _, fi := range plan.groupFused[plan.nodes[m.nodes[0]].group] {
			m.run.regs[plan.nodes[plan.fused[fi].root].op.Out], sumIdx = sumOuts[sumIdx[0]], sumIdx[1:]
		}
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
// batching benchmark compares against. Every rotation outside a fused tree
// runs as a singleton hoisted call with the plan's method decision, and each
// fused tree as one rotate-and-sum at its root add, which by the
// bit-identity contract (see top of file) yields byte-identical outputs to
// ExecuteBatch.
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

// mergedContext derives a context canceled only when ALL owner contexts are
// done — the cancellation rule for kernels shared across runs. With zero or
// one distinct owners it short-circuits. Deadlines do not propagate: a
// deadline-bound run abandons its remaining nodes itself, without tearing
// down a kernel its batchmates still need. The returned stop releases the
// watchers; callers must invoke it.
func mergedContext(ctxs []context.Context) (context.Context, func()) {
	distinct := ctxs[:0]
	for _, ctx := range ctxs {
		dup := false
		for _, d := range distinct {
			if d == ctx {
				dup = true
				break
			}
		}
		if !dup {
			distinct = append(distinct, ctx)
		}
	}
	switch len(distinct) {
	case 0:
		return context.Background(), func() {}
	case 1:
		return distinct[0], func() {}
	}
	mctx, cancel := context.WithCancel(context.Background())
	var remaining atomic.Int64
	remaining.Store(int64(len(distinct)))
	stops := make([]func() bool, len(distinct))
	for i, ctx := range distinct {
		stops[i] = context.AfterFunc(ctx, func() {
			if remaining.Add(-1) == 0 {
				cancel()
			}
		})
	}
	return mctx, func() {
		for _, s := range stops {
			s()
		}
		cancel()
	}
}

// recordBatch tallies the planner's decisions on the observer: one
// aether.decision.{hybrid,klss} count per executed key-switch site,
// aether.decision.hoisted per rotation served from a shared decomposition,
// plus a PlanRecord per run correlating the metrics with a fingerprinted
// program execution.
func (c *Context) recordBatch(runs []*Run, mergedRotations int) {
	if c.observer == nil {
		return
	}
	reg := c.observer.Registry()
	seq := c.observer.nextBatchSeq()
	executed := 0
	var requestIDs []string
	for _, run := range runs {
		if run == nil || run.Plan == nil || run.regs == nil {
			continue
		}
		executed++
		run.Batch = seq
		if rid := obs.RequestIDFrom(run.Ctx); rid != "" {
			requestIDs = append(requestIDs, rid)
		}
	}
	for _, run := range runs {
		if run == nil || run.Plan == nil || run.regs == nil {
			continue
		}
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
			Fingerprint:     plan.fingerprint,
			Batch:           seq,
			Runs:            executed,
			MergedRotations: mergedRotations,
			Units:           plan.units,
			Decisions:       plan.Decisions(),
			RequestIDs:      requestIDs,
			Err:             run.Err != nil,
		})
	}
}
