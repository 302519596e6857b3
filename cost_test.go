package fast

import (
	"context"
	"fmt"
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
// group's rotations (a fused site as one rotate-and-sum), and the method the
// plan chose must not be more than 10 % slower than the other (median of 9
// alternating runs a side). At a fused site the fusion itself is held to the
// same stopwatch and margin: under the planned method the rotate-and-sum must
// not be more than 10 % slower than the hoisted rotations added up (it
// measures 0.63× at serve and 0.77× at lib_deep on an idle host; the margin
// absorbs a host shared with other test binaries).
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
				fused        bool
			}
			seen := map[site]bool{}
			for _, d := range plan.Decisions() {
				s := site{d.Op, d.Level, d.Hoist, d.Fused != ""}
				if seen[s] {
					continue
				}
				seen[s] = true
				ct := ctx.eval.DropLevel(top.ct, top.ct.Level-d.Level)
				var rots []int
				if d.Op == "rotate" {
					for _, node := range plan.groups[d.Group] {
						if n := &plan.nodes[node]; n.fused == plan.nodes[d.Node].fused {
							rots = append(rots, n.op.R)
						}
					}
				}
				// unfused runs the site's rotations hoisted and adds them up.
				unfused := func(m Method) (*ckks.Ciphertext, error) {
					outs, err := ctx.eval.RotateHoistedWith(ct, rots, m)
					if err != nil {
						return nil, err
					}
					sum := outs[rots[0]]
					for _, r := range rots[1:] {
						if sum, err = ctx.eval.Add(sum, outs[r]); err != nil {
							return nil, err
						}
					}
					return sum, nil
				}
				timed := func(f func() error) time.Duration {
					t0 := time.Now()
					if err := f(); err != nil {
						t.Fatal(err)
					}
					return time.Since(t0)
				}
				run := func(m Method) time.Duration {
					return timed(func() error {
						var err error
						switch {
						case d.Op == "mul":
							_, err = ctx.eval.MulRelinWith(ct, ct, m)
						case d.Op == "conjugate":
							_, err = ctx.eval.ConjugateWith(ct, m)
						case s.fused:
							_, err = ctx.eval.RotateSumWith(ct, rots, m)
						default:
							_, err = ctx.eval.RotateHoistedWith(ct, rots, m)
						}
						return err
					})
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
				name := fmt.Sprintf("%s@%d h%d", d.Op, d.Level, d.Hoist)
				if s.fused {
					name += " fused"
				}
				t.Logf("%s: planned %v %v, other %v (%.2f×)", name, d.Method, mine, other, float64(mine)/float64(other))
				if float64(mine) > 1.10*float64(other) {
					t.Errorf("%s: the planned %v takes %v, the other method %v", name, d.Method, mine, other)
				}
				if !s.fused {
					continue
				}
				var fu, un []time.Duration
				for range 9 {
					fu = append(fu, run(d.Method))
					un = append(un, timed(func() error { _, err := unfused(d.Method); return err }))
				}
				t.Logf("%s: fused %v, unfused %v (%.2f×)", name, median(fu), median(un), float64(median(fu))/float64(median(un)))
				if float64(median(fu)) > 1.10*float64(median(un)) {
					t.Errorf("%s: the rotate-and-sum takes %v, the hoisted rotations added up %v", name, median(fu), median(un))
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

// A create is priced by what NewContext draws: the secret key and the public
// key's two polynomials, one pass each at the context's own shape. No
// evaluation key is generated there, so rotations, conjugation and KLSS weigh
// nothing; a zero config weighs what DefaultConfig builds, and a config
// NewContext refuses — a bad depth, a seed outside [1, 2^31−2] — nothing.
func TestKeygenUnitsPriceTheKeysGenerated(t *testing.T) {
	hybrid := ContextConfig{LogN: 11, Levels: 5, Rotations: []int{1, -1, 4}, Conjugation: true}
	shape, err := KeySwitchShape(hybrid)
	if err != nil {
		t.Fatal(err)
	}
	klss, bare := hybrid, hybrid
	klss.EnableKLSS = true
	bare.Rotations, bare.Conjugation = nil, false
	want := 3 * shape.PassUnits()
	for name, cfg := range map[string]ContextConfig{"hybrid": hybrid, "+KLSS": klss, "no evaluation keys": bare} {
		if got := KeygenUnits(cfg); got != want {
			t.Fatalf("%s: %g units, want sk + pk = 3 passes = %g", name, got, want)
		}
	}
	if got, want := KeygenUnits(ContextConfig{}), KeygenUnits(DefaultConfig()); got != want {
		t.Fatalf("zero config weighs %g, DefaultConfig %g", got, want)
	}
	if got := KeygenUnits(ContextConfig{LogN: 11, Levels: -3}); got != 0 {
		t.Fatalf("a config NewContext refuses weighs %g, want 0", got)
	}
	if got := KeygenUnits(ContextConfig{LogN: 11, Levels: 5, Seed: 1 << 31}); got != 0 {
		t.Fatalf("a seed NewContext refuses weighs %g, want 0", got)
	}
}

// A plan weighs, beyond its sites and passes, one top-level hybrid key
// switch per evaluation key it reads that its context has not derived yet.
// The term is read at call time: the first Execute derives the keys and the
// same plan's units fall to its sites and passes; a second plan reading a
// key it shares and a KLSS key nothing has read yet prices only the KLSS one.
func TestPlanUnitsFallAfterFirstExecute(t *testing.T) {
	cfg := ContextConfig{LogN: 9, Levels: 3, Rotations: []int{1, 4, -1, 2}, Conjugation: true, EnableKLSS: true}
	shape, err := KeySwitchShape(cfg)
	if err != nil {
		t.Fatal(err)
	}
	key := shape.KeySwitch(Hybrid, shape.L, 1).Total()
	ctx, err := NewContext(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fanout, err := ctx.Plan(NewProgram().In("x").
		Rotate("a", "x", 1).Rotate("b", "x", 4).Rotate("c", "x", -1).
		Add("s1", "a", "b").Add("s2", "s1", "c").Return("s2"), nil)
	if err != nil {
		t.Fatal(err)
	}
	sites := shape.PassUnits()*2 + shape.Hoisted(Hybrid, 3, 3, 1).Total()
	if got := fanout.Units(); got != sites+3*key {
		t.Fatalf("fresh fan-out plan: %g units, want its sites %g and 3 keys to derive %g", got, sites, sites+3*key)
	}
	x, err := ctx.Encrypt([]complex128{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Execute(context.Background(), fanout, map[string]*Ciphertext{"x": x}); err != nil {
		t.Fatal(err)
	}
	if got := fanout.Units(); got != sites {
		t.Fatalf("fan-out plan after its first Execute: %g units, want %g", got, sites)
	}
	pinned, err := ctx.Plan(NewProgram().In("x").Rotate("a", "x", 4).
		Rotate("b", "x", 4, WithMethod(KLSS)).Add("s", "a", "b").Return("s"), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := shape.PassUnits() + shape.KeySwitch(Hybrid, 3, 1).Total() + shape.KeySwitch(KLSS, 3, 1).Total() + key
	if got := pinned.Units(); got != want {
		t.Fatalf("plan reading hybrid rotation 4 (derived) and KLSS rotation 4 (not): %g units, want %g", got, want)
	}
}

// The shape a config reports is the one its context's plans are priced at:
// a plan's units are its passes, sites and keys to derive counted on
// KeySwitchShape — here one add, the two rotations it sums as one fused
// site, and their two keys.
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
	keys := 2 * shape.KeySwitch(Hybrid, 3, 1).Total() // rotations 1 and 2, not derived yet
	if got, want := plan.Units(), shape.PassUnits()+shape.Hoisted(Hybrid, 3, 2, 1).Total()+keys; got != want {
		t.Fatalf("plan units %g, want one pass, a fused hybrid hoist-2 group at level 3 and two keys to derive: %g", got, want)
	}
}
