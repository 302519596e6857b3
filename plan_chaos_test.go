package fast

// Differential planner suite, part of the chaos tier (`make chaos` runs it
// under -race): the DAG planner may reorder work, hoist rotation fan-out
// and merge groups across concurrently admitted runs — but every planned execution must remain BIT-identical to
// the straight-line interpretation of the same program. "Close enough" is
// not a property you can serve from a daemon that promises deterministic
// ciphertexts.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// ctBytes serializes a ciphertext for bit-exact comparison.
func ctBytes(t *testing.T, ct *Ciphertext) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ct.Serialize(&buf); err != nil {
		t.Fatalf("serialize: %v", err)
	}
	return buf.Bytes()
}

func chaosPlanInputs(ctx *Context, t *testing.T, salt int) map[string]*Ciphertext {
	t.Helper()
	n := ctx.Slots()
	xs := make([]complex128, n)
	ys := make([]complex128, n)
	for i := range xs {
		xs[i] = complex(0.07*float64((i+salt)%11), -0.02*float64(i%5))
		ys[i] = complex(0.3, 0.05*float64((i+2*salt)%7))
	}
	cx, err := ctx.Encrypt(xs)
	if err != nil {
		t.Fatal(err)
	}
	cy, err := ctx.Encrypt(ys)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Ciphertext{"x": cx, "y": cy}
}

// differentialPrograms is the program zoo: each shape stresses a different
// planner transformation.
func differentialPrograms() map[string]*Program {
	return map[string]*Program{
		// Rotation fan-out on a shared input: the planner hoists all three
		// through one ModUp.
		"fanout": NewProgram().In("x", "y").
			Rotate("a", "x", 1).
			Rotate("b", "x", 2).
			Rotate("c", "x", 4).
			Add("s1", "a", "b").
			Add("s2", "s1", "c").
			Mul("out", "s2", "y").
			Return("out"),
		// Multiply feeding a rotation fan-out: the group hoists the fused
		// mul's rescaled result, a computed register rather than an input.
		"mul-fanout": NewProgram().In("x", "y").
			Mul("m", "x", "y").
			Rotate("a", "m", 1).
			Rotate("b", "m", -1).
			Sub("out", "a", "b").
			Return("out"),
		// Mixed pinned methods: the KLSS pin splits the hoist group.
		"pinned-mix": NewProgram().In("x", "y").
			Rotate("a", "x", 1).
			Rotate("b", "x", 2, WithMethod(KLSS)).
			Rotate("c", "x", 4).
			Conjugate("cc", "y").
			Add("s1", "a", "b").
			Add("s2", "s1", "c").
			Add("out", "s2", "cc").
			Return("out"),
		// A fan-out pinned to KLSS as a whole: one hoisted KLSS group. The
		// planner never picks KLSS on its own at these contexts' shape (its
		// KLSS is hybrid over wider primes), so the pin keeps a planned KLSS
		// ModUp shared across rotations exercised.
		"klss-fanout": NewProgram().In("x", "y").
			Rotate("a", "x", 1, WithMethod(KLSS)).
			Rotate("b", "x", 2, WithMethod(KLSS)).
			Rotate("c", "x", 4, WithMethod(KLSS)).
			Add("s1", "a", "b").
			Add("s2", "s1", "c").
			Mul("out", "s2", "y").
			Return("out"),
		// Straight-line arithmetic with explicit rescale control.
		"norescale-chain": NewProgram().In("x", "y").
			Mul("m", "x", "y", NoRescale()).
			Rescale("ms", "m").
			MulConst("mc", "ms", 0.5).
			AddPlain("ap", "mc", []complex128{complex(0.1, 0)}).
			AddConst("out", "ap", 0.25).
			Return("out"),
	}
}

// TestChaosPlannerDifferentialBitExact: for every program shape, the batch
// executor (hoisting) and the sequential interpreter must produce
// byte-identical ciphertexts.
func TestChaosPlannerDifferentialBitExact(t *testing.T) {
	ctx := sharedConcCtx(t)
	for name, prog := range differentialPrograms() {
		t.Run(name, func(t *testing.T) {
			if err := prog.Validate(); err != nil {
				t.Fatalf("program: %v", err)
			}
			plan, err := ctx.Plan(prog, nil)
			if err != nil {
				t.Fatalf("plan: %v", err)
			}
			inputs := chaosPlanInputs(ctx, t, 3)

			batched, err := ctx.Execute(context.Background(), plan, inputs)
			if err != nil {
				t.Fatalf("Execute: %v", err)
			}
			seq, err := ctx.ExecuteSequential(context.Background(), plan, inputs)
			if err != nil {
				t.Fatalf("ExecuteSequential: %v", err)
			}
			if !bytes.Equal(ctBytes(t, batched), ctBytes(t, seq)) {
				t.Fatal("batch execution is not bit-identical to straight-line execution")
			}
		})
	}
}

// TestChaosPlannerConcurrentBatchBitExact merges several concurrently
// admitted runs — two of them sharing the literal same input ciphertext, so
// their rotation groups merge across runs — and checks each run's output
// against its own sequential execution.
func TestChaosPlannerConcurrentBatchBitExact(t *testing.T) {
	ctx := sharedConcCtx(t)
	prog := differentialPrograms()["fanout"]
	plan, err := ctx.Plan(prog, nil)
	if err != nil {
		t.Fatal(err)
	}

	shared := chaosPlanInputs(ctx, t, 1)
	other := chaosPlanInputs(ctx, t, 2)
	runs := []*Run{
		{Plan: plan, Inputs: shared},
		{Plan: plan, Inputs: shared}, // same ciphertext pointers: cross-run merge
		{Plan: plan, Inputs: other},
	}
	ctx.ExecuteBatch(runs)

	for i, run := range runs {
		if run.Err != nil {
			t.Fatalf("run %d: %v", i, run.Err)
		}
		want, err := ctx.ExecuteSequential(context.Background(), plan, run.Inputs)
		if err != nil {
			t.Fatalf("run %d sequential: %v", i, err)
		}
		if !bytes.Equal(ctBytes(t, run.Out), ctBytes(t, want)) {
			t.Fatalf("run %d: batched output differs from sequential", i)
		}
	}
}

// TestChaosPlannerParallelBatchesBitExact drives ExecuteBatch from several
// goroutines at once (the daemon's worker pool shape) under -race.
func TestChaosPlannerParallelBatchesBitExact(t *testing.T) {
	ctx := sharedConcCtx(t)
	prog := differentialPrograms()["mul-fanout"]
	plan, err := ctx.Plan(prog, nil)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			inputs := chaosPlanInputs(ctx, t, w)
			got, err := ctx.Execute(context.Background(), plan, inputs)
			if err != nil {
				errs <- fmt.Errorf("worker %d: %v", w, err)
				return
			}
			want, err := ctx.ExecuteSequential(context.Background(), plan, inputs)
			if err != nil {
				errs <- fmt.Errorf("worker %d sequential: %v", w, err)
				return
			}
			if !bytes.Equal(ctBytes(t, got), ctBytes(t, want)) {
				errs <- fmt.Errorf("worker %d: not bit-identical", w)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestChaosPlannerHoistReducesModUp is the quantitative claim behind the
// planner: a 3-rotation fan-out costs 3 ModUps straight-line but 1 hoisted
// (paper §2.2.3), and summed by an Add tree it is one key switch in both
// executors — one ModUp and one ModDown pair, also for two merged runs.
// Counted via the key-switch phase histograms (one moddown_ns observation
// per pair).
func TestChaosPlannerHoistReducesModUp(t *testing.T) {
	ob := NewObserver()
	cfg := DefaultConfig()
	cfg.LogN = 9
	cfg.Levels = 3
	cfg.Seed = 11
	ctx, err := NewContext(cfg, WithObserver(ob))
	if err != nil {
		t.Fatal(err)
	}
	phase := func(suffix string) uint64 {
		snap := ob.Metrics()
		var n uint64
		for name, h := range snap.Histograms {
			if strings.HasPrefix(name, "ckks.keyswitch.") && strings.HasSuffix(name, suffix) {
				n += h.Count
			}
		}
		return n
	}
	inputs := chaosPlanInputs(ctx, t, 5)
	for _, row := range []struct {
		name             string
		combine          func(p *Program) *Program
		seqUps, batchUps uint64
		downs            uint64
	}{
		// A sub keeps the tree unfused: every rotation ends in its own pair.
		{"sub-tree", func(p *Program) *Program { return p.Sub("s1", "a", "b").Add("out", "s1", "c") }, 3, 1, 3},
		{"add-tree", func(p *Program) *Program { return p.Add("s1", "a", "b").Add("out", "s1", "c") }, 1, 1, 1},
	} {
		prog := row.combine(NewProgram().In("x").Rotate("a", "x", 1).Rotate("b", "x", 2).Rotate("c", "x", 4)).Return("out")
		plan, err := ctx.Plan(prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, ex := range []struct {
			name string
			run  func() (*Ciphertext, error)
			ups  uint64
		}{
			{"sequential", func() (*Ciphertext, error) { return ctx.ExecuteSequential(context.Background(), plan, inputs) }, row.seqUps},
			{"batch", func() (*Ciphertext, error) { return ctx.Execute(context.Background(), plan, inputs) }, row.batchUps},
			// Two runs of one input merge: they share the ModUp, the loose
			// rotations and the sum.
			{"batch-of-two", func() (*Ciphertext, error) {
				runs := []*Run{{Plan: plan, Inputs: inputs}, {Plan: plan, Inputs: inputs}}
				ctx.ExecuteBatch(runs)
				if runs[1].Err != nil {
					return nil, runs[1].Err
				}
				return runs[0].Out, runs[0].Err
			}, row.batchUps},
		} {
			up0, down0 := phase(".modup_ns"), phase(".moddown_ns")
			if _, err := ex.run(); err != nil {
				t.Fatal(err)
			}
			if ups, downs := phase(".modup_ns")-up0, phase(".moddown_ns")-down0; ups != ex.ups || downs != row.downs {
				t.Errorf("%s %s: %d ModUps, %d ModDown pairs; want %d and %d", row.name, ex.name, ups, downs, ex.ups, row.downs)
			}
		}
	}
}

// TestChaosPlannerMergeIdentity pins what makes two runs' rotation groups
// one hoisted decomposition: equal InputIDs (the serving layer's digest of
// the wire bytes — the two runs hold DIFFERENT *Ciphertext values decoded
// from the same bytes) share one ModUp, different IDs do not, and without
// IDs the ciphertext pointer decides.
func TestChaosPlannerMergeIdentity(t *testing.T) {
	ob := NewObserver()
	cfg := DefaultConfig()
	cfg.LogN = 9
	cfg.Levels = 3
	cfg.Seed = 11
	ctx, err := NewContext(cfg, WithObserver(ob))
	if err != nil {
		t.Fatal(err)
	}
	prog := NewProgram().In("x").
		Rotate("a", "x", 1).
		Rotate("b", "x", 2).
		Add("out", "a", "b").
		Return("out")
	plan, err := ctx.Plan(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	wire := ctBytes(t, chaosPlanInputs(ctx, t, 5)["x"])
	decode := func() map[string]*Ciphertext {
		ct, err := ctx.ReadCiphertextBytes(wire)
		if err != nil {
			t.Fatal(err)
		}
		return map[string]*Ciphertext{"x": ct}
	}
	want, err := ctx.ExecuteSequential(context.Background(), plan, decode())
	if err != nil {
		t.Fatal(err)
	}
	modUps := func() uint64 {
		return ob.Metrics().Histograms["ckks.keyswitch.hybrid.modup_ns"].Count +
			ob.Metrics().Histograms["ckks.keyswitch.klss.modup_ns"].Count
	}
	id := func(s string) map[string]string { return map[string]string{"x": s} }
	shared := decode()
	for _, tc := range []struct {
		name string
		runs []*Run
		want uint64
	}{
		{"equal IDs, distinct ciphertexts", []*Run{{Inputs: decode(), InputIDs: id("digest-1")}, {Inputs: decode(), InputIDs: id("digest-1")}}, 1},
		{"different IDs", []*Run{{Inputs: decode(), InputIDs: id("digest-1")}, {Inputs: decode(), InputIDs: id("digest-2")}}, 2},
		{"no IDs, one ciphertext", []*Run{{Inputs: shared}, {Inputs: shared}}, 1},
		{"no IDs, distinct ciphertexts", []*Run{{Inputs: decode()}, {Inputs: decode()}}, 2},
		{"an ID never matches a pointer", []*Run{{Inputs: shared, InputIDs: id(fmt.Sprintf("%p", shared["x"]))}, {Inputs: shared}}, 2},
	} {
		for _, r := range tc.runs {
			r.Plan = plan
		}
		before := modUps()
		ctx.ExecuteBatch(tc.runs)
		if got := modUps() - before; got != tc.want {
			t.Errorf("%s: %d ModUps, want %d", tc.name, got, tc.want)
		}
		for i, r := range tc.runs {
			if r.Err != nil {
				t.Fatalf("%s: run %d: %v", tc.name, i, r.Err)
			}
			if !bytes.Equal(ctBytes(t, r.Out), ctBytes(t, want)) {
				t.Errorf("%s: run %d is not bit-identical to the sequential reference", tc.name, i)
			}
		}
	}
}

// TestChaosPlannerBatchCancellation: a pre-canceled run inside a batch fails
// with ErrCanceled while its batchmates complete bit-exactly — per-request
// cancellation survives micro-batching.
func TestChaosPlannerBatchCancellation(t *testing.T) {
	ctx := sharedConcCtx(t)
	prog := differentialPrograms()["fanout"]
	plan, err := ctx.Plan(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	shared := chaosPlanInputs(ctx, t, 4)

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	runs := []*Run{
		{Plan: plan, Inputs: shared, Ctx: canceled},
		{Plan: plan, Inputs: shared},
	}
	ctx.ExecuteBatch(runs)

	if !errors.Is(runs[0].Err, ErrCanceled) {
		t.Fatalf("canceled run: got %v, want ErrCanceled", runs[0].Err)
	}
	if runs[0].Out != nil {
		t.Fatal("canceled run produced an output")
	}
	if runs[1].Err != nil {
		t.Fatalf("healthy batchmate failed: %v", runs[1].Err)
	}
	want, err := ctx.ExecuteSequential(context.Background(), plan, shared)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ctBytes(t, runs[1].Out), ctBytes(t, want)) {
		t.Fatal("healthy batchmate not bit-identical after batchmate cancellation")
	}
}

// TestChaosPlanRecordsIntrospection: executed batches surface their plan
// decisions and merge accounting on the Observer.
func TestChaosPlanRecordsIntrospection(t *testing.T) {
	ob := NewObserver()
	cfg := DefaultConfig()
	cfg.LogN = 9
	cfg.Levels = 3
	cfg.Seed = 13
	ctx, err := NewContext(cfg, WithObserver(ob))
	if err != nil {
		t.Fatal(err)
	}
	prog := differentialPrograms()["fanout"]
	plan, err := ctx.Plan(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	shared := chaosPlanInputs(ctx, t, 6)
	runs := []*Run{
		{Plan: plan, Inputs: shared},
		{Plan: plan, Inputs: shared},
	}
	ctx.ExecuteBatch(runs)
	for i, run := range runs {
		if run.Err != nil {
			t.Fatalf("run %d: %v", i, run.Err)
		}
	}

	recs := ob.PlanRecords()
	if len(recs) != 2 {
		t.Fatalf("got %d plan records, want 2", len(recs))
	}
	for _, rec := range recs {
		if rec.Fingerprint != plan.Fingerprint() {
			t.Fatalf("record fingerprint %s != plan %s", rec.Fingerprint, plan.Fingerprint())
		}
		if rec.Runs != 2 || rec.Err {
			t.Fatalf("record %+v: want Runs=2, Err=false", rec)
		}
		if rec.MergedRotations == 0 {
			t.Fatal("identical-input batch recorded no merged rotations")
		}
		if len(rec.Decisions) != len(plan.Decisions()) {
			t.Fatalf("record carries %d decisions, plan has %d", len(rec.Decisions), len(plan.Decisions()))
		}
	}

	snap := ob.Metrics()
	if snap.Counters["aether.decision.hybrid"]+snap.Counters["aether.decision.klss"] == 0 {
		t.Fatal("no aether method decisions counted")
	}
	if snap.Counters["aether.decision.hoisted"] == 0 {
		t.Fatal("hoisted fan-out not counted")
	}
}

// TestFusedSiteParallelBatchesBitExact drives fused sites through
// ExecuteBatch from several goroutines at once under -race: each batch
// merges two runs reading one input (one decomposition, one shared sum, a
// loose rotation beside it) next to a run of its own, and every output must
// be the bytes of its sequential execution.
func TestFusedSiteParallelBatchesBitExact(t *testing.T) {
	ctx := sharedConcCtx(t)
	prog := NewProgram().In("x", "y").
		Rotate("a", "x", 1).Rotate("b", "x", 2).Rotate("c", "x", -1).Rotate("d", "x", 4).
		Add("s1", "a", "b").Add("s2", "s1", "c").
		Mul("m", "s2", "d").Add("out", "m", "y").
		Return("out")
	plan, err := ctx.Plan(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := plan.Decisions(); d[0].Fused != "s2" || d[3].Fused != "" {
		t.Fatalf("want a, b, c fused under s2 and d loose: %+v", d)
	}

	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shared := chaosPlanInputs(ctx, t, 2*w)
			runs := []*Run{
				{Plan: plan, Inputs: shared},
				{Plan: plan, Inputs: shared},
				{Plan: plan, Inputs: chaosPlanInputs(ctx, t, 2*w+1)},
			}
			ctx.ExecuteBatch(runs)
			for i, run := range runs {
				if run.Err != nil {
					errs <- fmt.Errorf("worker %d run %d: %v", w, i, run.Err)
					return
				}
				want, err := ctx.ExecuteSequential(context.Background(), plan, run.Inputs)
				if err != nil {
					errs <- fmt.Errorf("worker %d run %d sequential: %v", w, i, err)
					return
				}
				if !bytes.Equal(ctBytes(t, run.Out), ctBytes(t, want)) {
					errs <- fmt.Errorf("worker %d run %d: not bit-identical", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
