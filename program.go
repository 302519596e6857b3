package fast

import (
	"encoding/json"
	"fmt"
)

// ProgramVersion is the JSON program format version this package speaks.
// Version 2 is the first public format: it adds the explicit `version` field,
// a declared input list and planner-decided ("auto") method selection. It is
// the only format cmd/fastd accepts.
const ProgramVersion = 2

// ProgramOp is one instruction of a Program. Fields are op-dependent,
// mirroring the wire format:
//
//	op           reads              extras
//	add,sub,mul  A, B
//	mulplain     A                  Values
//	addplain     A                  Values
//	mulconst     A                  Value
//	addconst     A                  Value
//	rotate       A                  R
//	conjugate    A
//	rescale      A
//
// Every op writes Out. Method/MethodPinned carry the key-switching backend
// for mul/rotate/conjugate: a pinned op runs Method, an unpinned one whatever
// the planner decides for it (Context.Plan). NoRescale suppresses the
// automatic rescale of the multiplying ops.
type ProgramOp struct {
	Op           string
	Out          string
	A, B         string
	R            int
	Value        float64
	Values       []complex128
	Method       Method
	MethodPinned bool
	NoRescale    bool
}

// Program is an SSA-style register program over ciphertexts: declared inputs
// seed the registers, each op reads registers (and literals) and writes a
// fresh register, and one named register is returned. Build one with
// NewProgram's chaining methods or unmarshal the JSON format v2; compile it
// against a Context with Context.Plan.
//
// A Program is immutable once built and safe to share: many Plans (and many
// concurrent executions) can reference the same Program.
type Program struct {
	inputs []string
	ops    []ProgramOp
	output string
	err    error // first builder error, sticky
}

// NewProgram returns an empty program builder. Calls chain:
//
//	p := fast.NewProgram().In("x", "y").
//		Mul("t", "x", "y").
//		Rotate("r", "t", 1, fast.WithMethod(fast.KLSS)).
//		AddConst("out", "r", 0.125).
//		Return("out")
func NewProgram() *Program { return &Program{} }

// In declares input registers (ciphertexts supplied at execution time).
func (p *Program) In(names ...string) *Program {
	p.inputs = append(p.inputs, names...)
	return p
}

// progOpSettings resolves per-op builder options. Unlike Context.settings it
// must distinguish "no WithMethod passed" (planner decides) from an explicit
// pin, so the method field starts at a sentinel.
func progOpSettings(opts []OpOption) (m Method, pinned, noRescale bool) {
	s := opSettings{method: Method(-1)}
	for _, o := range opts {
		o(&s)
	}
	if s.method >= 0 {
		return s.method, true, s.noRescale
	}
	return Hybrid, false, s.noRescale
}

func (p *Program) op(op ProgramOp) *Program {
	p.ops = append(p.ops, op)
	return p
}

// Add appends out = a + b.
func (p *Program) Add(out, a, b string) *Program {
	return p.op(ProgramOp{Op: "add", Out: out, A: a, B: b})
}

// Sub appends out = a - b.
func (p *Program) Sub(out, a, b string) *Program {
	return p.op(ProgramOp{Op: "sub", Out: out, A: a, B: b})
}

// Mul appends out = a * b (relinearised, auto-rescaled unless NoRescale).
// WithMethod pins the key-switching backend; without it the planner decides.
func (p *Program) Mul(out, a, b string, opts ...OpOption) *Program {
	m, pinned, nr := progOpSettings(opts)
	return p.op(ProgramOp{Op: "mul", Out: out, A: a, B: b, Method: m, MethodPinned: pinned, NoRescale: nr})
}

// MulPlain appends out = a * values (plaintext vector).
func (p *Program) MulPlain(out, a string, values []complex128, opts ...OpOption) *Program {
	_, _, nr := progOpSettings(opts)
	return p.op(ProgramOp{Op: "mulplain", Out: out, A: a, Values: values, NoRescale: nr})
}

// AddPlain appends out = a + values (plaintext vector).
func (p *Program) AddPlain(out, a string, values []complex128) *Program {
	return p.op(ProgramOp{Op: "addplain", Out: out, A: a, Values: values})
}

// MulConst appends out = a * v.
func (p *Program) MulConst(out, a string, v float64, opts ...OpOption) *Program {
	_, _, nr := progOpSettings(opts)
	return p.op(ProgramOp{Op: "mulconst", Out: out, A: a, Value: v, NoRescale: nr})
}

// AddConst appends out = a + v.
func (p *Program) AddConst(out, a string, v float64) *Program {
	return p.op(ProgramOp{Op: "addconst", Out: out, A: a, Value: v})
}

// Rotate appends out = rotate(a, r). WithMethod pins the backend; without it
// the planner decides — and rotations of a shared source are grouped into one
// hoisted decomposition automatically. Rotations of one group summed by an
// Add tree (each read only by the tree) run as one rotate-and-sum with one
// ModDown pair; their output bytes differ from the rotations added up, and
// decrypt at least as precisely.
func (p *Program) Rotate(out, a string, r int, opts ...OpOption) *Program {
	m, pinned, _ := progOpSettings(opts)
	return p.op(ProgramOp{Op: "rotate", Out: out, A: a, R: r, Method: m, MethodPinned: pinned})
}

// Conjugate appends out = conj(a).
func (p *Program) Conjugate(out, a string, opts ...OpOption) *Program {
	m, pinned, _ := progOpSettings(opts)
	return p.op(ProgramOp{Op: "conjugate", Out: out, A: a, Method: m, MethodPinned: pinned})
}

// Rescale appends out = rescale(a) (drops one level).
func (p *Program) Rescale(out, a string) *Program {
	return p.op(ProgramOp{Op: "rescale", Out: out, A: a})
}

// Append appends a raw instruction — the programmatic escape hatch for
// adapters lowering foreign program shapes onto a Program. No checking
// happens here; Validate reports malformed ops with their index, exactly as
// it does for unmarshalled programs.
func (p *Program) Append(op ProgramOp) *Program { return p.op(op) }

// Return names the output register.
func (p *Program) Return(out string) *Program {
	p.output = out
	return p
}

// Inputs returns the declared input registers.
func (p *Program) Inputs() []string { return append([]string(nil), p.inputs...) }

// Ops returns the instruction list.
func (p *Program) Ops() []ProgramOp { return append([]ProgramOp(nil), p.ops...) }

// Output returns the output register name.
func (p *Program) Output() string { return p.output }

// Validate statically checks the program. Every failure wraps
// ErrInvalidProgram with a distinct message; the checks, in order per op:
// missing out register, unknown op, arity (missing B operand / values), reads
// of undefined registers, unknown pinned method, writes shadowing a program
// input, duplicate register writes. Whole-program checks: non-empty op list,
// a named output that is written (or is an input), and no unused inputs.
func (p *Program) Validate() error {
	if p.err != nil {
		return p.err
	}
	if len(p.ops) == 0 {
		return fmt.Errorf("empty program: %w", ErrInvalidProgram)
	}
	if p.output == "" {
		return fmt.Errorf("missing output register: %w", ErrInvalidProgram)
	}
	inputs := make(map[string]bool, len(p.inputs))
	for _, in := range p.inputs {
		if in == "" {
			return fmt.Errorf("empty input register name: %w", ErrInvalidProgram)
		}
		if inputs[in] {
			return fmt.Errorf("input register %q declared twice: %w", in, ErrInvalidProgram)
		}
		inputs[in] = true
	}
	defined := make(map[string]bool, len(inputs)+len(p.ops))
	for in := range inputs {
		defined[in] = true
	}
	used := make(map[string]bool)
	written := make(map[string]bool, len(p.ops))
	for i, op := range p.ops {
		if op.Out == "" {
			return fmt.Errorf("op %d (%s): missing out register: %w", i, op.Op, ErrInvalidProgram)
		}
		needB := false
		switch op.Op {
		case "add", "sub", "mul":
			needB = true
		case "mulplain", "addplain":
			if len(op.Values) == 0 {
				return fmt.Errorf("op %d (%s): missing values: %w", i, op.Op, ErrInvalidProgram)
			}
		case "mulconst", "addconst", "rotate", "conjugate", "rescale":
		default:
			return fmt.Errorf("op %d: unknown op %q: %w", i, op.Op, ErrInvalidProgram)
		}
		if op.A == "" || !defined[op.A] {
			return fmt.Errorf("op %d (%s): undefined register %q: %w", i, op.Op, op.A, ErrInvalidProgram)
		}
		used[op.A] = true
		if needB {
			if op.B == "" || !defined[op.B] {
				return fmt.Errorf("op %d (%s): undefined register %q: %w", i, op.Op, op.B, ErrInvalidProgram)
			}
			used[op.B] = true
		}
		if op.MethodPinned && op.Method != Hybrid && op.Method != KLSS {
			return fmt.Errorf("op %d (%s): unknown method %d: %w", i, op.Op, int(op.Method), ErrInvalidProgram)
		}
		if inputs[op.Out] {
			return fmt.Errorf("op %d (%s): register %q shadows a program input: %w", i, op.Op, op.Out, ErrInvalidProgram)
		}
		if written[op.Out] {
			return fmt.Errorf("op %d (%s): register %q already written (duplicate write): %w", i, op.Op, op.Out, ErrInvalidProgram)
		}
		written[op.Out] = true
		defined[op.Out] = true
	}
	if !defined[p.output] {
		return fmt.Errorf("output register %q never written: %w", p.output, ErrInvalidProgram)
	}
	used[p.output] = true
	for _, in := range p.inputs {
		if !used[in] {
			return fmt.Errorf("input register %q is never used: %w", in, ErrInvalidProgram)
		}
	}
	return nil
}

// ---- JSON format v2 --------------------------------------------------------

// wireComplex is the {re, im} JSON shape of one complex literal.
type wireComplex struct {
	Re float64 `json:"re"`
	Im float64 `json:"im"`
}

// programOpWire is one instruction on the wire. method is "" (planner
// decides), "hybrid" or "klss".
type programOpWire struct {
	Op        string        `json:"op"`
	Out       string        `json:"out"`
	A         string        `json:"a,omitempty"`
	B         string        `json:"b,omitempty"`
	R         int           `json:"r,omitempty"`
	Value     float64       `json:"value,omitempty"`
	Values    []wireComplex `json:"values,omitempty"`
	Method    string        `json:"method,omitempty"`
	NoRescale bool          `json:"no_rescale,omitempty"`
}

// programWire is the JSON program format v2.
type programWire struct {
	Version int             `json:"version"`
	Inputs  []string        `json:"inputs,omitempty"`
	Ops     []programOpWire `json:"ops"`
	Output  string          `json:"output"`
}

// methodName renders a ProgramOp's method for the wire ("" when unpinned).
func (op ProgramOp) methodName() string {
	if !op.MethodPinned {
		return ""
	}
	return op.Method.String()
}

// ParseMethod maps a wire method name onto (Method, pinned): "" leaves the
// choice to the planner, "hybrid" and "klss" pin it. Any other name is an
// ErrInvalidProgram.
func ParseMethod(name string) (Method, bool, error) {
	switch name {
	case "":
		return Hybrid, false, nil
	case "hybrid":
		return Hybrid, true, nil
	case "klss":
		return KLSS, true, nil
	default:
		return 0, false, fmt.Errorf("unknown method %q: %w", name, ErrInvalidProgram)
	}
}

// MarshalJSON emits the JSON program format v2.
func (p *Program) MarshalJSON() ([]byte, error) {
	w := programWire{Version: ProgramVersion, Inputs: p.inputs, Output: p.output}
	w.Ops = make([]programOpWire, len(p.ops))
	for i, op := range p.ops {
		ow := programOpWire{
			Op: op.Op, Out: op.Out, A: op.A, B: op.B, R: op.R,
			Value: op.Value, Method: op.methodName(), NoRescale: op.NoRescale,
		}
		if len(op.Values) > 0 {
			ow.Values = make([]wireComplex, len(op.Values))
			for j, v := range op.Values {
				ow.Values[j] = wireComplex{Re: real(v), Im: imag(v)}
			}
		}
		w.Ops[i] = ow
	}
	return json.Marshal(w)
}

// UnmarshalJSON parses the JSON program format v2. The version field is
// mandatory and must equal ProgramVersion.
func (p *Program) UnmarshalJSON(data []byte) error {
	var w programWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.Version != ProgramVersion {
		return fmt.Errorf("program version %d unsupported (want %d): %w", w.Version, ProgramVersion, ErrInvalidProgram)
	}
	out := Program{inputs: w.Inputs, output: w.Output}
	out.ops = make([]ProgramOp, len(w.Ops))
	for i, ow := range w.Ops {
		m, pinned, err := ParseMethod(ow.Method)
		if err != nil {
			return fmt.Errorf("op %d (%s): %w", i, ow.Op, err)
		}
		op := ProgramOp{
			Op: ow.Op, Out: ow.Out, A: ow.A, B: ow.B, R: ow.R,
			Value: ow.Value, Method: m, MethodPinned: pinned, NoRescale: ow.NoRescale,
		}
		if len(ow.Values) > 0 {
			op.Values = make([]complex128, len(ow.Values))
			for j, v := range ow.Values {
				op.Values[j] = complex(v.Re, v.Im)
			}
		}
		out.ops[i] = op
	}
	*p = out
	return nil
}
