package fast

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
)

var (
	fuzzPlanOnce sync.Once
	fuzzPlanCtx  *Context
	fuzzPlanErr  error
)

// taxonomy is every sentinel a Plan or Execute failure may wrap.
var taxonomy = []error{
	ErrInvalidProgram, ErrInvalidParameters, ErrLevelMismatch, ErrLevelExhausted,
	ErrScaleMismatch, ErrSlotCountMismatch, ErrNotRelinearized, ErrMethodUnavailable,
	ErrKeyMissing, ErrInvalidCiphertext, ErrInvalidValue,
}

func typedError(err error) bool {
	for _, want := range taxonomy {
		if errors.Is(err, want) {
			return true
		}
	}
	return false
}

// fuzzContext is the context FuzzProgramPlan and the fused-tree tests plan
// against, built once.
func fuzzContext(t testing.TB) *Context {
	fuzzPlanOnce.Do(func() {
		fuzzPlanCtx, fuzzPlanErr = NewContext(ContextConfig{
			LogN: 8, Levels: 4, Rotations: []int{1, -1, 2, 4}, Conjugation: true, EnableKLSS: true, Seed: 5,
		})
	})
	if fuzzPlanErr != nil {
		t.Fatal(fuzzPlanErr)
	}
	return fuzzPlanCtx
}

// fuzzInputs returns a program's input vectors and their encryptions.
func fuzzInputs(t testing.TB, ctx *Context, prog *Program) (map[string][]complex128, map[string]*Ciphertext) {
	plain := make(map[string][]complex128, len(prog.inputs))
	inputs := make(map[string]*Ciphertext, len(prog.inputs))
	for i, in := range prog.inputs {
		vals := make([]complex128, ctx.Slots())
		for j := range vals {
			vals[j] = complex(0.05*float64((i+j)%9), -0.03*float64(j%4))
		}
		ct, err := ctx.Encrypt(vals)
		if err != nil {
			t.Fatal(err)
		}
		plain[in], inputs[in] = vals, ct
	}
	return plain, inputs
}

// FuzzProgramPlan: any Program v2 that Validate accepts either plans or fails
// with an error from the package taxonomy — never a panic — and a planned
// program executes to the same bytes through the batch executor and the
// sequential interpreter (or fails in both with typed errors), and decrypts
// within oracleFloor of the plaintext oracle whenever the run stays in the
// oracle's regime. The corpus is seeded from the TestChaosPlanner* zoo and
// the fused Add-tree shapes (fusedPrograms), unfused trees among them.
func FuzzProgramPlan(f *testing.F) {
	for _, prog := range differentialPrograms() {
		raw, err := json.Marshal(prog)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, row := range fusedPrograms() {
		raw, err := json.Marshal(row.prog)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"version":2,"inputs":["x"],"ops":[{"op":"rotate","out":"a","a":"x","r":3},` +
		`{"op":"mul","out":"b","a":"a","b":"a","method":"klss","no_rescale":true},` +
		`{"op":"rescale","out":"c","a":"b"},{"op":"rescale","out":"d","a":"c"}],"output":"d"}`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		var prog Program
		if json.Unmarshal(raw, &prog) != nil || prog.Validate() != nil {
			return
		}
		// Bound the work per iteration, not the validity of the program.
		if len(prog.ops) > 24 || len(prog.inputs) > 3 {
			return
		}
		ctx := fuzzContext(t)

		plan, err := ctx.Plan(&prog, nil)
		if err != nil {
			if !typedError(err) {
				t.Fatalf("Plan failed outside the taxonomy: %v", err)
			}
			return
		}
		plain, inputs := fuzzInputs(t, ctx, &prog)
		batched, berr := ctx.Execute(context.Background(), plan, inputs)
		seq, serr := ctx.ExecuteSequential(context.Background(), plan, inputs)
		if (berr == nil) != (serr == nil) {
			t.Fatalf("Execute err %v, ExecuteSequential err %v", berr, serr)
		}
		if berr != nil {
			if !typedError(berr) || !typedError(serr) {
				t.Fatalf("execution failed outside the taxonomy: %v / %v", berr, serr)
			}
			return
		}
		if !bytes.Equal(ctBytes(t, batched), ctBytes(t, seq)) {
			t.Fatal("Execute is not byte-identical to ExecuteSequential")
		}
		checkAgainstPlain(t, ctx, &prog, plain, batched)
	})
}
