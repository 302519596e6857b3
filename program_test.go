package fast

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/fastfhe/fast/internal/ckks"
	"github.com/fastfhe/fast/internal/costmodel"
)

// validProgram is a small well-formed program used as the mutation base for
// the validation table.
func validProgram() *Program {
	return NewProgram().In("x", "y").
		Mul("m", "x", "y").
		Rotate("r", "m", 1).
		AddConst("out", "r", 0.5).
		Return("out")
}

func TestProgramValidateOK(t *testing.T) {
	if err := validProgram().Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
}

// TestProgramValidateRejects mutates the base program one defect at a time
// and asserts each is rejected with ErrInvalidProgram and a distinguishing
// message.
func TestProgramValidateRejects(t *testing.T) {
	cases := []struct {
		name    string
		build   func() *Program
		message string
	}{
		{"empty program", func() *Program { return NewProgram() },
			"empty program"},
		{"missing output register", func() *Program {
			return NewProgram().In("x").AddConst("t", "x", 1)
		}, "missing output register"},
		{"empty input name", func() *Program {
			return NewProgram().In("x", "").AddConst("out", "x", 1).Return("out")
		}, "empty input register name"},
		{"input declared twice", func() *Program {
			return NewProgram().In("x", "x").AddConst("out", "x", 1).Return("out")
		}, "declared twice"},
		{"missing out register", func() *Program {
			return NewProgram().In("x").AddConst("", "x", 1).Return("out")
		}, "missing out register"},
		{"unknown op", func() *Program {
			return NewProgram().In("x").Append(ProgramOp{Op: "teleport", A: "x", Out: "out"}).Return("out")
		}, "unknown op"},
		{"undefined register", func() *Program {
			return NewProgram().In("x").Add("out", "x", "ghost").Return("out")
		}, "undefined register"},
		{"use before definition", func() *Program {
			return NewProgram().In("x").
				Add("out", "x", "later").
				AddConst("later", "x", 1).
				Return("out")
		}, "undefined register"},
		{"duplicate write", func() *Program {
			return NewProgram().In("x").
				AddConst("t", "x", 1).
				AddConst("t", "x", 2).
				Add("out", "t", "t").
				Return("out")
		}, "duplicate write"},
		{"write shadows input", func() *Program {
			return NewProgram().In("x", "y").
				AddConst("y", "x", 1).
				Add("out", "x", "y").
				Return("out")
		}, "shadows a program input"},
		{"output never written", func() *Program {
			return NewProgram().In("x").AddConst("t", "x", 1).Return("out")
		}, "never written"},
		{"unused input", func() *Program {
			return NewProgram().In("x", "y").AddConst("out", "x", 1).Return("out")
		}, "never used"},
		{"missing values", func() *Program {
			return NewProgram().In("x").MulPlain("out", "x", nil).Return("out")
		}, "missing values"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.build().Validate()
			if err == nil {
				t.Fatal("defect accepted")
			}
			if !errors.Is(err, ErrInvalidProgram) {
				t.Fatalf("error %v is not ErrInvalidProgram", err)
			}
			if !strings.Contains(err.Error(), tc.message) {
				t.Fatalf("error %q does not contain %q", err, tc.message)
			}
		})
	}
}

// An input that is only consumed by the output declaration counts as used
// (returning an input passed through untouched is legal).
func TestProgramOutputCountsAsUse(t *testing.T) {
	p := NewProgram().In("x", "y").AddConst("t", "x", 1).Return("y")
	if err := p.Validate(); err != nil {
		t.Fatalf("pass-through output rejected: %v", err)
	}
}

func TestProgramJSONRoundTrip(t *testing.T) {
	p := NewProgram().In("x", "y").
		Mul("m", "x", "y", WithMethod(KLSS), NoRescale()).
		Rescale("ms", "m").
		Rotate("r", "ms", 3).
		MulPlain("mp", "r", []complex128{complex(1, 2), complex(3, -4)}).
		AddConst("out", "mp", 0.125).
		Return("out")
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"version":2`) {
		t.Fatalf("wire form lacks explicit version: %s", raw)
	}

	var back Program
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	raw2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(raw2) {
		t.Fatalf("round trip not stable:\n%s\n%s", raw, raw2)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped program invalid: %v", err)
	}
}

func TestProgramJSONVersionEnforced(t *testing.T) {
	var p Program
	err := json.Unmarshal([]byte(`{"version":1,"inputs":["x"],"ops":[],"output":"x"}`), &p)
	if err == nil || !strings.Contains(err.Error(), "version 1 unsupported") {
		t.Fatalf("v1 object accepted or wrong error: %v", err)
	}
	err = json.Unmarshal([]byte(`{"inputs":["x"],"ops":[],"output":"x"}`), &p)
	if err == nil {
		t.Fatal("versionless object accepted")
	}
}

func TestParseMethod(t *testing.T) {
	if m, pinned, err := ParseMethod(""); err != nil || pinned || m != Hybrid {
		t.Fatalf("empty: %v %v %v", m, pinned, err)
	}
	if m, pinned, err := ParseMethod("hybrid"); err != nil || !pinned || m != Hybrid {
		t.Fatalf("hybrid: %v %v %v", m, pinned, err)
	}
	if m, pinned, err := ParseMethod("klss"); err != nil || !pinned || m != KLSS {
		t.Fatalf("klss: %v %v %v", m, pinned, err)
	}
	if _, _, err := ParseMethod("quantum"); err == nil {
		t.Fatal("unknown method accepted")
	}
}

// TestPlanHoistGroups checks that rotation fan-out on a shared source is
// detected as one hoist group while unrelated rotations stay solo.
func TestPlanHoistGroups(t *testing.T) {
	ctx := sharedConcCtx(t)
	p := NewProgram().In("x", "y").
		Rotate("a", "x", 1).
		Rotate("b", "x", 2).
		Rotate("c", "x", 4).
		Rotate("d", "y", 1).
		Add("s1", "a", "b").
		Add("s2", "c", "d").
		Add("out", "s1", "s2").
		Return("out")
	plan, err := ctx.Plan(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	groups := plan.HoistGroups()
	var sizes []int
	for _, g := range groups {
		sizes = append(sizes, len(g))
	}
	big := 0
	for _, g := range groups {
		if len(g) == 3 {
			big++
		} else if len(g) != 1 {
			t.Fatalf("unexpected group sizes %v", sizes)
		}
	}
	if big != 1 {
		t.Fatalf("want one 3-rotation hoist group over x, got sizes %v", sizes)
	}

	// Decisions expose the same structure: the grouped rotations share a
	// group index and carry Hoist=3.
	hoisted := 0
	for _, d := range plan.Decisions() {
		if d.Op == "rotate" && d.Hoist == 3 {
			hoisted++
		}
	}
	if hoisted != 3 {
		t.Fatalf("want 3 decisions with Hoist=3, got %d", hoisted)
	}
}

// TestPlanPinnedMethodSplitsGroups: a pinned KLSS rotation must not share a
// hoist group with hybrid rotations of the same source (ModUp bases differ).
func TestPlanPinnedMethodSplitsGroups(t *testing.T) {
	ctx := sharedConcCtx(t)
	p := NewProgram().In("x").
		Rotate("a", "x", 1).
		Rotate("b", "x", 2, WithMethod(KLSS)).
		Rotate("c", "x", 4).
		Add("s", "a", "b").
		Add("out", "s", "c").
		Return("out")
	plan, err := ctx.Plan(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range plan.HoistGroups() {
		if len(g) == 3 {
			t.Fatal("pinned KLSS rotation merged into a hybrid hoist group")
		}
	}
}

func TestPlanFingerprintDeterministic(t *testing.T) {
	ctx := sharedConcCtx(t)
	p := validProgram()
	a, err := ctx.Plan(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctx.Plan(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("same program, different fingerprints: %s vs %s", a.Fingerprint(), b.Fingerprint())
	}
	c, err := ctx.Plan(p, map[string]int{"x": 2, "y": 2})
	if err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint() == a.Fingerprint() {
		t.Fatal("different input levels, same fingerprint")
	}
	if a.Units() <= 0 {
		t.Fatalf("plan units = %g, want > 0", a.Units())
	}
}

// TestPlanFingerprintWithoutCompile pins the pre-compilation helper to the
// compiled plan's fingerprint: the cache key a serving layer computes with
// Context.PlanFingerprint must equal plan.Fingerprint() for every level
// resolution path (explicit, missing-defaults-to-max) and plan option.
func TestPlanFingerprintWithoutCompile(t *testing.T) {
	ctx := sharedConcCtx(t)
	p := validProgram()
	cases := []struct {
		name   string
		levels map[string]int
		opts   []PlanOption
	}{
		{"nil levels", nil, nil},
		{"explicit levels", map[string]int{"x": 2, "y": 2}, nil},
		{"partial levels default to max", map[string]int{"x": 1}, nil},
		{"pinned default method", nil, []PlanOption{PlanWithDefaultMethod(Hybrid)}},
	}
	for _, tc := range cases {
		plan, err := ctx.Plan(p, tc.levels, tc.opts...)
		if err != nil {
			t.Fatalf("%s: Plan: %v", tc.name, err)
		}
		if got := ctx.PlanFingerprint(p, tc.levels, tc.opts...); got != plan.Fingerprint() {
			t.Fatalf("%s: PlanFingerprint %s != compiled %s", tc.name, got, plan.Fingerprint())
		}
	}
	if got := ctx.PlanFingerprint(nil, nil); got != "" {
		t.Fatalf("nil program fingerprint = %q, want empty", got)
	}
}

func TestPlanErrors(t *testing.T) {
	ctx := sharedConcCtx(t)

	// Level exhaustion: Levels+1 rescaling multiplies.
	deep := NewProgram().In("x")
	prev := "x"
	for i := 0; i <= ctx.MaxLevel(); i++ {
		out := "m" + string(rune('0'+i))
		deep.Mul(out, prev, prev)
		prev = out
	}
	deep.Return(prev)
	if _, err := ctx.Plan(deep, nil); !errors.Is(err, ErrLevelExhausted) {
		t.Fatalf("deep mul chain: got %v, want ErrLevelExhausted", err)
	}

	// Invalid program surfaces through Plan too.
	if _, err := ctx.Plan(NewProgram(), nil); !errors.Is(err, ErrInvalidProgram) {
		t.Fatalf("empty program: got %v, want ErrInvalidProgram", err)
	}

	// PlanWithDefaultMethod(KLSS) on a KLSS-enabled context is fine...
	if _, err := ctx.Plan(validProgram(), nil, PlanWithDefaultMethod(KLSS)); err != nil {
		t.Fatalf("KLSS default on KLSS context: %v", err)
	}
	// ...but a KLSS pin on a context without KLSS keys is a plan-time error.
	cfg := DefaultConfig()
	cfg.LogN = 9
	cfg.Levels = 2
	cfg.Rotations = []int{1}
	cfg.EnableKLSS = false
	small, err := NewContext(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pinned := NewProgram().In("x").Rotate("out", "x", 1, WithMethod(KLSS)).Return("out")
	if _, err := small.Plan(pinned, nil); !errors.Is(err, ErrMethodUnavailable) {
		t.Fatalf("pinned KLSS without keys: got %v, want ErrMethodUnavailable", err)
	}
	if _, err := small.Plan(validProgram(), nil, PlanWithDefaultMethod(KLSS)); !errors.Is(err, ErrMethodUnavailable) {
		t.Fatalf("KLSS default without keys: got %v, want ErrMethodUnavailable", err)
	}
}

func TestExecuteValidatesInputs(t *testing.T) {
	ctx := sharedConcCtx(t)
	plan, err := ctx.Plan(validProgram(), nil)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]complex128, ctx.Slots())
	cx, err := ctx.Encrypt(vals)
	if err != nil {
		t.Fatal(err)
	}

	// Missing input.
	if _, err := ctx.Execute(nil, plan, map[string]*Ciphertext{"x": cx}); !errors.Is(err, ErrInvalidProgram) {
		t.Fatalf("missing input: got %v", err)
	}

	// Wrong level: plan assumed MaxLevel, hand it a dropped ciphertext.
	low, err := ctx.Rescale(cx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Execute(nil, plan, map[string]*Ciphertext{"x": low, "y": cx}); !errors.Is(err, ErrLevelMismatch) {
		t.Fatalf("level mismatch: got %v", err)
	}

	// Nil plan.
	if _, err := ctx.Execute(nil, nil, nil); !errors.Is(err, ErrInvalidProgram) {
		t.Fatalf("nil plan: got %v", err)
	}
}

// TestMethodIsOneType: the hybrid/KLSS enum has one declaration
// (costmodel.Method) and two aliases. The assignments below compile only
// while all three names denote the identical type — a defined type in place
// of an alias would need a conversion.
func TestMethodIsOneType(t *testing.T) {
	var m Method = KLSS
	var k ckks.KeySwitchMethod = m
	var c costmodel.Method = k
	m = c
	var _ *costmodel.Method = &m
	if m != ckks.KLSS || Hybrid != costmodel.Hybrid {
		t.Fatal("aliased constants disagree")
	}
	if Hybrid.String() != "hybrid" || KLSS.String() != "klss" {
		t.Fatalf("method names changed: %q %q", Hybrid, KLSS)
	}

	// Plan decisions encode the method as its integer, on /debug/plans too.
	raw, err := json.Marshal([]PlanDecision{{Op: "mul", Method: Hybrid}, {Op: "rotate", Method: KLSS}})
	if err != nil {
		t.Fatal(err)
	}
	if s := string(raw); !strings.Contains(s, `"method":0,`) || !strings.Contains(s, `"method":1,`) {
		t.Fatalf("plan-decision JSON no longer encodes method as 0|1: %s", s)
	}
	if strings.Contains(string(raw), "deferred") {
		t.Fatalf("plan-decision JSON still carries a rescale-placement field: %s", raw)
	}
}

// TestPlanGoldenBenchmarkPrograms pins what the planner decides for the
// programs the benchmark runs (benchmark/oracle.go: fanoutProgram is serve_*,
// deepProgram is lib_deep) at the benchmark's full and toy sizes. Units,
// fingerprints, method decisions and hoist groups were printed at the commit
// before rescale deferral was deleted and must not move.
func TestPlanGoldenBenchmarkPrograms(t *testing.T) {
	fanout := func() *Program {
		return NewProgram().In("x").
			Rotate("a", "x", 1).Rotate("b", "x", 4).Rotate("c", "x", -1).
			Add("s1", "a", "b").Add("s2", "s1", "c").AddConst("out", "s2", 0.5).
			Return("out")
	}
	deep := func() *Program {
		return NewProgram().In("x").
			Mul("m1", "x", "x").Mul("m2", "m1", "m1").
			Rotate("r1", "m2", 1).Rotate("r2", "m2", 2).Rotate("r3", "m2", 4).Rotate("r4", "m2", 8).
			Add("a1", "r1", "r2").Add("a2", "r3", "r4").Add("a3", "a1", "a2").
			Mul("m3", "a3", "m2").
			Rotate("c1", "m3", 16).Rotate("c2", "c1", 32).
			AddConst("out", "c2", 0.25).
			Return("out")
	}
	serveCfg := func(logN int) ContextConfig {
		cfg := DefaultConfig()
		cfg.LogN, cfg.Seed = logN, 7
		return cfg
	}
	deepCfg := func(logN, levels int) ContextConfig {
		return ContextConfig{LogN: logN, Levels: levels, LogScale: 36,
			Rotations: []int{1, 2, 4, 8, 16, 32}, EnableKLSS: true, Seed: 7}
	}
	const fanoutDec = "0:rotate@5:0:g0:h3 1:rotate@5:0:g0:h3 2:rotate@5:0:g0:h3 "
	for _, row := range []struct {
		name   string
		cfg    ContextConfig
		prog   *Program
		slow   bool
		units  float64
		fp     string
		groups string
		dec    string
	}{
		{"serve/toy", serveCfg(9), fanout(), false, 754176, "plan-512d34b9d61fa788", "[[0 1 2]]", fanoutDec},
		{"serve/full", serveCfg(11), fanout(), false, 3.34848e+06, "plan-512d34b9d61fa788", "[[0 1 2]]", fanoutDec},
		{"lib_deep/toy", deepCfg(9, 5), deep(), false, 1.944832e+06, "plan-6c0eefeebf3cb618", "[[2 3 4 5] [10] [11]]",
			"0:mul@5:0:g-1:h1 1:mul@4:0:g-1:h1 2:rotate@3:1:g0:h4 3:rotate@3:1:g0:h4 4:rotate@3:1:g0:h4 5:rotate@3:1:g0:h4 " +
				"9:mul@3:0:g-1:h1 10:rotate@2:0:g1:h1 11:rotate@2:0:g2:h1 "},
		{"lib_deep/full", deepCfg(13, 11), deep(), true, 6.7350528e+07, "plan-da2553aef434ddef", "[[2 3 4 5] [10] [11]]",
			"0:mul@11:0:g-1:h1 1:mul@10:0:g-1:h1 2:rotate@9:1:g0:h4 3:rotate@9:1:g0:h4 4:rotate@9:1:g0:h4 5:rotate@9:1:g0:h4 " +
				"9:mul@9:0:g-1:h1 10:rotate@8:0:g1:h1 11:rotate@8:0:g2:h1 "},
	} {
		t.Run(row.name, func(t *testing.T) {
			if row.slow && testing.Short() {
				t.Skip("log_n 13 keygen")
			}
			ctx, err := NewContext(row.cfg)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := ctx.Plan(row.prog, nil)
			if err != nil {
				t.Fatal(err)
			}
			dec := ""
			for _, d := range plan.Decisions() {
				dec += fmt.Sprintf("%d:%s@%d:%d:g%d:h%d ", d.Node, d.Op, d.Level, int(d.Method), d.Group, d.Hoist)
			}
			if plan.Units() != row.units || plan.Fingerprint() != row.fp ||
				fmt.Sprint(plan.HoistGroups()) != row.groups || dec != row.dec {
				t.Fatalf("plan moved:\n units %v fp %s groups %v\n dec %s\nwant\n units %v fp %s groups %s\n dec %s",
					plan.Units(), plan.Fingerprint(), plan.HoistGroups(), dec, row.units, row.fp, row.groups, row.dec)
			}
		})
	}
}
