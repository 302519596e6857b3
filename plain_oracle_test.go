package fast

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"testing"
)

// plainRun is the test-side plaintext oracle of a Program: it interprets the
// program slot-wise on complex vectors, independently of every homomorphic
// code path, so a sum that is consistently wrong in both executors still
// shows. Next to the output it reports whether the run stayed in the regime
// oracleFloor is stated for (every register's scale at least 2^30, every
// value at most 16 in magnitude and well inside its level's modulus), by
// shadowing each register's scale (log2) and level the way the planner
// propagates them; a run outside it proves nothing either way.
func plainRun(prog *Program, inputs map[string][]complex128, cfg ContextConfig) (out []complex128, inRange bool) {
	type reg struct {
		v        []complex128
		logScale int
		level    int
	}
	regs := make(map[string]reg, len(inputs)+len(prog.ops))
	for name, v := range inputs {
		regs[name] = reg{v, cfg.LogScale, cfg.Levels}
	}
	inRange = true
	for _, op := range prog.ops {
		a := regs[op.A]
		n := len(a.v)
		r := reg{make([]complex128, n), a.logScale, a.level}
		var b []complex128
		switch op.Op {
		case "add", "sub", "mul":
			rb := regs[op.B]
			b, r.level = rb.v, min(a.level, rb.level)
			if op.Op == "mul" {
				r.logScale += rb.logScale
			}
		case "mulplain", "addplain":
			b = make([]complex128, n) // plain operands are zero-padded
			copy(b, op.Values)
		}
		for j := range r.v {
			switch op.Op {
			case "add", "addplain":
				r.v[j] = a.v[j] + b[j]
			case "sub":
				r.v[j] = a.v[j] - b[j]
			case "mul", "mulplain":
				r.v[j] = a.v[j] * b[j]
			case "mulconst":
				r.v[j] = a.v[j] * complex(op.Value, 0)
			case "addconst":
				r.v[j] = a.v[j] + complex(op.Value, 0)
			case "rotate": // positive r moves slots towards lower indices
				r.v[j] = a.v[((j+op.R)%n+n)%n]
			case "conjugate":
				r.v[j] = cmplx.Conj(a.v[j])
			case "rescale":
				r.v[j] = a.v[j]
			}
		}
		switch op.Op {
		case "mulplain", "mulconst":
			r.logScale += cfg.LogScale
		}
		switch op.Op {
		case "mul", "mulplain", "mulconst":
			if op.NoRescale {
				break
			}
			fallthrough
		case "rescale":
			r.logScale -= cfg.LogScale
			r.level--
		}
		peak := 0.0
		for _, v := range r.v {
			peak = math.Max(peak, cmplx.Abs(v))
		}
		qBits := cfg.LogScale + 14 + r.level*cfg.LogScale // q0 holds the message plus 14 bits
		if r.logScale < 30 || peak > 16 || float64(r.logScale)+math.Log2(peak+1)+8 > float64(qBits) {
			inRange = false
		}
		regs[op.Out] = r
	}
	return regs[prog.output].v, inRange
}

// oracleFloor is the largest slot error a decryption may show against
// plainRun inside its regime: 2^-10, far above what the schemes' noise and
// rounding reach there (about 2^-23 on the seed corpus) and far below a
// wrong sum, a dropped rotation or a wrong rotation amount.
const oracleFloor = 1.0 / 1024

// checkAgainstPlain decrypts got and holds it to plainRun's result on the
// same inputs within oracleFloor, when the run is in the oracle's regime.
func checkAgainstPlain(t *testing.T, ctx *Context, prog *Program, plain map[string][]complex128, got *Ciphertext) {
	t.Helper()
	want, inRange := plainRun(prog, plain, ctx.Config())
	if !inRange {
		return
	}
	dec := ctx.Decrypt(got)
	worst := 0.0
	for j := range want {
		worst = math.Max(worst, cmplx.Abs(dec[j]-want[j]))
	}
	if !(worst <= oracleFloor) {
		t.Fatalf("decryption is %g from the plaintext oracle (floor %g)", worst, oracleFloor)
	}
}

// fusedPrograms are the fused Add-tree shapes next to the trees the planner
// must leave unfused, with the root registers it fuses.
func fusedPrograms() map[string]struct {
	prog  *Program
	fused string // "node:root" per fused rotation, in node order
} {
	type row = struct {
		prog  *Program
		fused string
	}
	rot3 := func(inputs ...string) *Program {
		return NewProgram().In(inputs...).Rotate("a", "x", 1).Rotate("b", "x", 2).Rotate("c", "x", 4)
	}
	return map[string]row{
		"sum2": {NewProgram().In("x").Rotate("a", "x", 1).Rotate("b", "x", -1).
			Add("out", "a", "b").Return("out"), "0:out 1:out"},
		"sum3-chain": {rot3("x", "y").Add("s1", "a", "b").Add("s2", "s1", "c").Mul("out", "s2", "y").Return("out"),
			"0:s2 1:s2 2:s2"},
		"sum4-balanced": {NewProgram().In("x").
			Rotate("a", "x", 1).Rotate("b", "x", 2).Rotate("c", "x", 4).Rotate("d", "x", -1).
			Add("s1", "a", "b").Add("s2", "c", "d").Add("out", "s1", "s2").Return("out"), "0:out 1:out 2:out 3:out"},
		"sum-with-rot0": {NewProgram().In("x").Rotate("a", "x", 0).Rotate("b", "x", 1).Rotate("c", "x", 2).
			Add("s1", "a", "b").Add("out", "s1", "c").Return("out"), "0:out 1:out 2:out"},
		"sum-repeated-rot": {NewProgram().In("x").Rotate("a", "x", 1).Rotate("b", "x", 1).Rotate("c", "x", -1).
			Add("s1", "a", "b").Add("out", "s1", "c").Return("out"), "0:out 1:out 2:out"},
		// a is also read by the Mul: it stays hoisted on the group's
		// decomposition, and only b + c fuses.
		"member-read-outside": {rot3("x").Add("s1", "b", "c").Add("s2", "s1", "a").Mul("out", "s2", "a").Return("out"),
			"1:s1 2:s1"},
		// s1 is read twice, so it is the root of its own tree and c stays
		// loose.
		"inner-add-read-twice": {rot3("x").Add("s1", "a", "b").Add("s2", "s1", "c").Mul("out", "s2", "s1").Return("out"),
			"0:s1 1:s1"},
		"sub-tree": {rot3("x").Sub("s1", "a", "b").Add("out", "s1", "c").Return("out"), ""},
		"two-sources": {NewProgram().In("x", "y").Rotate("a", "x", 1).Rotate("b", "y", 1).
			Add("out", "a", "b").Return("out"), ""},
		"pin-splits-group": {NewProgram().In("x").Rotate("a", "x", 1).Rotate("b", "x", 2, WithMethod(KLSS)).
			Add("out", "a", "b").Return("out"), ""},
		"leaf-is-output": {NewProgram().In("x").Rotate("a", "x", 1).Rotate("b", "x", 2).
			Add("s", "a", "b").Add("out", "s", "s").Return("out"), "0:s 1:s"},
	}
}

// The planner fuses exactly the trees that qualify; each executor's output
// matches the other's bytes and the plaintext oracle.
func TestPlanFusesAddTrees(t *testing.T) {
	ctx := fuzzContext(t)
	for name, row := range fusedPrograms() {
		t.Run(name, func(t *testing.T) {
			plan, err := ctx.Plan(row.prog, nil)
			if err != nil {
				t.Fatal(err)
			}
			fused := ""
			for _, d := range plan.Decisions() {
				if d.Fused != "" {
					if fused != "" {
						fused += " "
					}
					fused += fmt.Sprintf("%d:%s", d.Node, d.Fused)
				}
			}
			if fused != row.fused {
				t.Fatalf("fused %q, want %q", fused, row.fused)
			}
			plain, inputs := fuzzInputs(t, ctx, row.prog)
			batched, err := ctx.Execute(context.Background(), plan, inputs)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := ctx.ExecuteSequential(context.Background(), plan, inputs)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ctBytes(t, batched), ctBytes(t, seq)) {
				t.Fatal("Execute is not byte-identical to ExecuteSequential")
			}
			if _, inRange := plainRun(row.prog, plain, ctx.Config()); !inRange {
				t.Fatal("program left the oracle's regime")
			}
			checkAgainstPlain(t, ctx, row.prog, plain, batched)
		})
	}
}
