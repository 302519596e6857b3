package main

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	fast "github.com/fastfhe/fast"
)

// evalPlain is the plaintext oracle: it interprets a fast.Program slot-wise
// on complex vectors, independently of every homomorphic code path. A
// workload's output is correct when its decryption agrees with this to the
// workload's precision floor.
func evalPlain(prog *fast.Program, inputs map[string][]complex128) ([]complex128, error) {
	regs := make(map[string][]complex128, len(inputs))
	for k, v := range inputs {
		regs[k] = v
	}
	for i, op := range prog.Ops() {
		a, ok := regs[op.A]
		if !ok {
			return nil, fmt.Errorf("oracle: op %d (%s): undefined register %q", i, op.Op, op.A)
		}
		n := len(a)
		out := make([]complex128, n)
		var b []complex128
		switch op.Op {
		case "add", "sub", "mul":
			if b, ok = regs[op.B]; !ok || len(b) != n {
				return nil, fmt.Errorf("oracle: op %d (%s): bad register %q", i, op.Op, op.B)
			}
		case "mulplain", "addplain":
			// Plain operands are padded with zeros to the slot count.
			b = make([]complex128, n)
			copy(b, op.Values)
		}
		for j := range out {
			switch op.Op {
			case "add", "addplain":
				out[j] = a[j] + b[j]
			case "sub":
				out[j] = a[j] - b[j]
			case "mul", "mulplain":
				out[j] = a[j] * b[j]
			case "mulconst":
				out[j] = a[j] * complex(op.Value, 0)
			case "addconst":
				out[j] = a[j] + complex(op.Value, 0)
			case "rotate":
				// Positive r moves slots towards lower indices.
				out[j] = a[((j+op.R)%n+n)%n]
			case "conjugate":
				out[j] = cmplx.Conj(a[j])
			case "rescale":
				out[j] = a[j]
			default:
				return nil, fmt.Errorf("oracle: op %d: unknown op %q", i, op.Op)
			}
		}
		regs[op.Out] = out
	}
	out, ok := regs[prog.Output()]
	if !ok {
		return nil, fmt.Errorf("oracle: output register %q never written", prog.Output())
	}
	return out, nil
}

// precisionBits compares a decryption with the oracle and returns the number
// of correct fractional bits two ways: rms is -log2 of the root-mean-square
// error over the slots, worst is -log2 of the largest error in any slot.
// The worst slot is what the correctness floor judges — one bad slot is a
// wrong answer. The metric precision_bits reports rms: the worst of a
// thousand slots is an extreme-value statistic that moves by a bit from seed
// to seed with no change in the code, the rms error does not. Exact agreement
// is capped at 64 bits so both stay finite.
func precisionBits(got, want []complex128) (rms, worst float64) {
	if len(got) != len(want) || len(got) == 0 {
		return 0, 0
	}
	var sumSq, maxErr float64
	for i := range got {
		e := cmplx.Abs(got[i] - want[i])
		sumSq += e * e
		maxErr = math.Max(maxErr, e)
	}
	bits := func(e float64) float64 {
		if e == 0 {
			return 64
		}
		return math.Min(64, -math.Log2(e))
	}
	return bits(math.Sqrt(sumSq / float64(len(got)))), bits(maxErr)
}

// seededVector derives a plaintext vector in the unit box from rng: values
// small enough that three multiplications stay well inside the scale.
func seededVector(rng *rand.Rand, slots int) []complex128 {
	v := make([]complex128, slots)
	for i := range v {
		v[i] = complex(rng.Float64()*1.2-0.6, rng.Float64()*1.2-0.6)
	}
	return v
}

// fanoutProgram is the rotation fan-out of BenchmarkServeThroughput: three
// rotations of one source (one hoisted ModUp when planned), two adds and an
// AddConst. It is what both serving workloads evaluate.
func fanoutProgram() *fast.Program {
	return fast.NewProgram().In("x").
		Rotate("a", "x", 1).
		Rotate("b", "x", 4).
		Rotate("c", "x", -1).
		Add("s1", "a", "b").
		Add("s2", "s1", "c").
		AddConst("out", "s2", 0.5).
		Return("out")
}

// deepProgram is lib_deep's operation: three multiplications at descending
// levels, one 4-way hoist group, one chain of two dependent rotations, and no
// pinned method. At (log_n 13, 11 levels) the cost model places the hoist
// group (level 9, 4 rotations) on the KLSS side of Aether's choice and every
// other site on the hybrid side, so one Execute crosses both backends.
func deepProgram() *fast.Program {
	return fast.NewProgram().In("x").
		Mul("m1", "x", "x").
		Mul("m2", "m1", "m1").
		Rotate("r1", "m2", 1).
		Rotate("r2", "m2", 2).
		Rotate("r3", "m2", 4).
		Rotate("r4", "m2", 8).
		Add("a1", "r1", "r2").
		Add("a2", "r3", "r4").
		Add("a3", "a1", "a2").
		Mul("m3", "a3", "m2").
		Rotate("c1", "m3", 16).
		Rotate("c2", "c1", 32).
		AddConst("out", "c2", 0.25).
		Return("out")
}
