package fast

import (
	"slices"
	"testing"
	"time"

	"github.com/fastfhe/fast/internal/ckks"
	"github.com/fastfhe/fast/internal/costmodel"
)

// TestPlannedMethodIsNotSlower holds the planner to a stopwatch: at the
// benchmark's two parameter points — lib_deep's (log_n 13, 11 levels, KLSS
// on, two-way limb fan-out) planning its deep program, and the serving
// default (log_n 11, 5 levels) planning the rotation fan-out — every distinct
// key-switch site runs under both methods, at its level and with its hoist
// group's rotations, and the method the plan chose must not be more than 10 %
// slower than the other (median of 9 alternating runs a side).
func TestPlannedMethodIsNotSlower(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("times log_n 13 key switches")
	}
	deep := ContextConfig{LogN: 13, Levels: 11, LogScale: 36,
		Rotations: []int{1, 2, 4, 8, 16, 32}, EnableKLSS: true, Seed: 7}
	for _, pt := range []struct {
		name string
		cfg  ContextConfig
		opts []Option
		prog *Program
	}{
		{"lib_deep", deep, []Option{WithParallelism(2)}, NewProgram().In("x").
			Mul("m1", "x", "x").Mul("m2", "m1", "m1").
			Rotate("r1", "m2", 1).Rotate("r2", "m2", 2).Rotate("r3", "m2", 4).Rotate("r4", "m2", 8).
			Add("a1", "r1", "r2").Add("a2", "r3", "r4").Add("a3", "a1", "a2").
			Mul("m3", "a3", "m2").
			Rotate("c1", "m3", 16).Rotate("c2", "c1", 32).
			AddConst("out", "c2", 0.25).
			Return("out")},
		{"serve", DefaultConfig(), nil, NewProgram().In("x").
			Rotate("a", "x", 1).Rotate("b", "x", 4).Rotate("c", "x", -1).
			Add("s1", "a", "b").Add("s2", "s1", "c").AddConst("out", "s2", 0.5).
			Return("out")},
	} {
		t.Run(pt.name, func(t *testing.T) {
			ctx, err := NewContext(pt.cfg, pt.opts...)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := ctx.Plan(pt.prog, nil)
			if err != nil {
				t.Fatal(err)
			}
			vals := make([]complex128, ctx.Slots())
			for i := range vals {
				vals[i] = complex(0.01*float64(i%7), 0)
			}
			top, err := ctx.Encrypt(vals)
			if err != nil {
				t.Fatal(err)
			}
			type site struct {
				op           string
				level, hoist int
			}
			seen := map[site]bool{}
			for _, d := range plan.Decisions() {
				s := site{d.Op, d.Level, d.Hoist}
				if seen[s] {
					continue
				}
				seen[s] = true
				ct := ctx.eval.DropLevel(top.ct, top.ct.Level-d.Level)
				var rots []int
				if d.Op == "rotate" {
					for _, node := range plan.groups[d.Group] {
						rots = append(rots, plan.nodes[node].op.R)
					}
				}
				run := func(m Method) time.Duration {
					t0 := time.Now()
					var err error
					switch d.Op {
					case "mul":
						_, err = ctx.eval.MulRelinWith(ct, ct, m)
					case "conjugate":
						_, err = ctx.eval.ConjugateWith(ct, m)
					default:
						_, err = ctx.eval.RotateHoistedWith(ct, rots, m)
					}
					if err != nil {
						t.Fatal(err)
					}
					return time.Since(t0)
				}
				run(ckks.Hybrid) // first use builds the level's switch tables
				run(ckks.KLSS)
				var hy, kl []time.Duration
				for range 9 {
					hy = append(hy, run(ckks.Hybrid))
					kl = append(kl, run(ckks.KLSS))
				}
				mine, other := median(hy), median(kl)
				if d.Method == KLSS {
					mine, other = other, mine
				}
				t.Logf("%s@%d h%d: planned %v %v, other %v (%.2f×)", d.Op, d.Level, d.Hoist, d.Method, mine, other,
					float64(mine)/float64(other))
				if float64(mine) > 1.10*float64(other) {
					t.Errorf("%s@%d h%d: the planned %v takes %v, the other method %v", d.Op, d.Level, d.Hoist, d.Method, mine, other)
				}
			}
		})
	}
}

func median(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/2]
}

// A create is priced by the keys NewContext generates at the context's own
// shape: enabling KLSS adds nothing (its keys are derived on the first KLSS
// op), a conjugation key counts only when asked for, and a zero config weighs
// what DefaultConfig builds.
func TestKeygenUnitsPriceTheKeysGenerated(t *testing.T) {
	hybrid := ContextConfig{LogN: 11, Levels: 5, Rotations: []int{1, -1, 4}, Conjugation: true}
	klss := hybrid
	klss.EnableKLSS = true
	noConj := hybrid
	noConj.Conjugation = false
	h, k, n := KeygenUnits(hybrid), KeygenUnits(klss), KeygenUnits(noConj)
	if h <= 0 || k != h || n >= h {
		t.Fatalf("units: hybrid %g, +KLSS %g, no conjugation %g; want 0 < no-conj < hybrid = +KLSS", h, k, n)
	}
	if got, want := KeygenUnits(ContextConfig{}), KeygenUnits(DefaultConfig()); got != want {
		t.Fatalf("zero config weighs %g, DefaultConfig %g", got, want)
	}
	if got := KeygenUnits(ContextConfig{LogN: 11, Levels: -3}); got != 0 {
		t.Fatalf("a config NewContext refuses weighs %g, want 0", got)
	}
}

// The shape a config reports is the one its context's plans are priced at:
// a plan's units are its passes and sites counted on KeySwitchShape.
func TestKeySwitchShapeIsThePlansShape(t *testing.T) {
	cfg := ContextConfig{LogN: 9, Levels: 3, Rotations: []int{1, 2}, EnableKLSS: true, Seed: 3}
	shape, err := KeySwitchShape(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := costmodel.Shape{LogN: 9, L: 3, Alpha: 2, AlphaT: 2, P: 2, T: 2, QLane: 1, PLane: 1, TLane: 2}
	if shape != want {
		t.Fatalf("shape %+v, want %+v", shape, want)
	}
	ctx, err := NewContext(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ctx.Plan(NewProgram().In("x").Rotate("a", "x", 1).Rotate("b", "x", 2).
		Add("s", "a", "b").Return("s"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := plan.Units(), shape.PassUnits()+shape.KeySwitch(Hybrid, 3, 2).Total(); got != want {
		t.Fatalf("plan units %g, want one pass and a hybrid hoist-2 group at level 3: %g", got, want)
	}
}
