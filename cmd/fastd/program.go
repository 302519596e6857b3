package main

import (
	"encoding/json"
	"fmt"

	fast "github.com/fastfhe/fast"
)

// The eval endpoint takes one program format: "program" is an OBJECT, the
// fast.Program JSON format v2 — an explicit `version: 2` field, a declared
// input list, per-op optional methods ("" = planner decides) and its own
// output register. It compiles through the public planner (Context.Plan):
// rotation fan-out is hoisted, methods are chosen per site from the cost
// model, and the plan's unit weight prices admission.

// compiledEval is a fully planned request, ready for execution.
type compiledEval struct {
	plan   *fast.Plan
	inputs map[string]*fast.Ciphertext
}

// compileEval parses, validates and plans an eval request body. Every error
// is a client error (HTTP 400) and never reaches the worker pool. The result
// holds no reference into body.
func compileEval(sess *session, body []byte) (*compiledEval, error) {
	wire, err := scanEvalEnvelope(body)
	if err != nil {
		return nil, fmt.Errorf("decode eval request: %w", err)
	}

	// Anything but an object — absent, null, or the array that was program
	// format v1 — gets an answer that names the format to send, not a JSON
	// type error.
	if len(wire.program) == 0 || wire.program[0] != '{' {
		return nil, fmt.Errorf(`program must be a version %d object {"version":%d,"inputs":[...],"ops":[...],"output":"..."}: %w`,
			fast.ProgramVersion, fast.ProgramVersion, fast.ErrInvalidProgram)
	}
	prog := &fast.Program{}
	if err := json.Unmarshal(wire.program, prog); err != nil {
		return nil, fmt.Errorf("decode program: %w", err)
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}

	// Ciphertext coverage must match the declared inputs exactly: the planner
	// compiled level propagation and method choices from these levels, so a
	// silent extra or missing input would be a plan for a different program.
	declared := make(map[string]bool, len(prog.Inputs()))
	ce := &compiledEval{inputs: make(map[string]*fast.Ciphertext, len(wire.inputs))}
	levels := make(map[string]int, len(wire.inputs))
	for _, name := range prog.Inputs() {
		declared[name] = true
		b64, ok := wire.input(name)
		if !ok {
			return nil, fmt.Errorf("missing ciphertext for input %q", name)
		}
		ct, err := readCiphertext(sess.ctx, b64)
		if err != nil {
			return nil, fmt.Errorf("input %q: %w", name, err)
		}
		ce.inputs[name] = ct
		levels[name] = ct.Level()
	}
	for _, in := range wire.inputs {
		if !declared[in.name] {
			return nil, fmt.Errorf("ciphertext %q does not match a declared input", in.name)
		}
	}

	// Plan lookup by fingerprint: the key covers the program text and the
	// resolved input levels — everything compilation depends on besides the
	// session context the cache is scoped to. Plans are immutable, so a
	// cached instance serves concurrent requests; a miss compiles once and
	// publishes for the next request. Two racing first requests may both
	// compile — identical plans, either wins.
	key := sess.ctx.PlanFingerprint(prog, levels)
	if ce.plan = sess.plans.get(key); ce.plan != nil {
		return ce, nil
	}
	if ce.plan, err = sess.ctx.Plan(prog, levels); err != nil {
		return nil, err
	}
	sess.plans.put(key, ce.plan)
	return ce, nil
}
