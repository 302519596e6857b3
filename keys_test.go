package fast_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	fast "github.com/fastfhe/fast"
)

// keyOp is one op of keyOps.
type keyOp struct {
	name string
	run  func(ctx *fast.Context, ct *fast.Ciphertext) ([][]byte, error)
}

// keyOps are eight ops pinned to m, one per goroutine in the concurrent test:
// between them they read every key of m that snapshotTestConfig names — the
// relinearization key, each rotation key, the conjugation key — singly,
// twice, and as a hoisted fan-out over all three rotations.
func keyOps(m fast.Method) []keyOp {
	pin := fast.WithMethod(m)
	return []keyOp{
		{"mul", func(ctx *fast.Context, ct *fast.Ciphertext) ([][]byte, error) {
			return wires(ctx.Mul(ct, ct, pin))
		}},
		{"rot1", func(ctx *fast.Context, ct *fast.Ciphertext) ([][]byte, error) {
			return wires(ctx.Rotate(ct, 1, pin))
		}},
		{"rot-1", func(ctx *fast.Context, ct *fast.Ciphertext) ([][]byte, error) {
			return wires(ctx.Rotate(ct, -1, pin))
		}},
		{"rot4", func(ctx *fast.Context, ct *fast.Ciphertext) ([][]byte, error) {
			return wires(ctx.Rotate(ct, 4, pin))
		}},
		{"conj", func(ctx *fast.Context, ct *fast.Ciphertext) ([][]byte, error) {
			return wires(ctx.Conjugate(ct, pin))
		}},
		{"hoisted", func(ctx *fast.Context, ct *fast.Ciphertext) ([][]byte, error) {
			outs, err := ctx.RotateHoisted(ct, []int{1, -1, 4}, pin)
			if err != nil {
				return nil, err
			}
			return [][]byte{outs[1].AppendBinary(nil), outs[-1].AppendBinary(nil), outs[4].AppendBinary(nil)}, nil
		}},
		{"mul-again", func(ctx *fast.Context, ct *fast.Ciphertext) ([][]byte, error) {
			return wires(ctx.Mul(ct, ct, pin, fast.NoRescale()))
		}},
		{"rot1-again", func(ctx *fast.Context, ct *fast.Ciphertext) ([][]byte, error) {
			return wires(ctx.Rotate(ct, 1, pin))
		}},
	}
}

func wires(ct *fast.Ciphertext, err error) ([][]byte, error) {
	if err != nil {
		return nil, err
	}
	return [][]byte{ct.AppendBinary(nil)}, nil
}

// keyInput encrypts the tests' input on ctx: the first encrypt of a context
// of snapshotTestConfig, so every such context gets the same bytes.
func keyInput(t *testing.T, ctx *fast.Context) *fast.Ciphertext {
	t.Helper()
	vals := make([]complex128, ctx.Slots())
	for i := range vals {
		vals[i] = complex(0.25*float64(i%5), -0.125*float64(i%3))
	}
	ct, err := ctx.Encrypt(vals)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

// runKeyOps runs every op in order and returns their outputs.
func runKeyOps(t *testing.T, ops []keyOp, ctx *fast.Context, ct *fast.Ciphertext) [][][]byte {
	t.Helper()
	out := make([][][]byte, len(ops))
	for i, op := range ops {
		var err error
		if out[i], err = op.run(ctx, ct); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
	}
	return out
}

func sameOutputs(t *testing.T, what string, ops []keyOp, got, want [][][]byte) {
	t.Helper()
	for i := range want {
		for j := range want[i] {
			if !bytes.Equal(got[i][j], want[i][j]) {
				t.Fatalf("%s: %s output %d differs from the reference", what, ops[i].name, j)
			}
		}
	}
}

// draws reads the context's sampler draw counter: encrypts and evaluation-key
// derivations count there, and nothing else.
func draws(ctx *fast.Context) uint64 {
	return ctx.Metrics().Counters["ckks.sampler.draws"]
}

// keyDraws is what deriving one key of a context of cfg draws: 2 polynomials
// per gadget group, at the top level and α = α_T = 2.
func keyDraws(cfg fast.ContextConfig) uint64 { return uint64(2 * ((cfg.Levels + 2) / 2)) }

// observed is NewContext(cfg) with an observer, so draws counts.
func observed(t *testing.T, cfg fast.ContextConfig) *fast.Context {
	t.Helper()
	ctx, err := fast.NewContext(cfg, fast.WithObserver(fast.NewObserver()))
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

// TestKeysDerivedOnceUnderConcurrentFirstUse: sixteen goroutines make a
// fresh context's first ops at once, eight pinned to each method. Each key is
// derived exactly once — the draw counter moves by one derivation of the
// five keys of each method — and every output is byte-identical to a context
// of the same seed that ran the same ops from one goroutine, one method after
// the other.
func TestKeysDerivedOnceUnderConcurrentFirstUse(t *testing.T) {
	cfg := snapshotTestConfig()
	ops := append(keyOps(fast.Hybrid), keyOps(fast.KLSS)...)
	ref := observed(t, cfg)
	refIn := keyInput(t, ref)
	before := draws(ref)
	want := runKeyOps(t, ops, ref, refIn)
	const keys = 2 * (1 + 3 + 1) // per method: relin, three rotations, conjugation
	if d := draws(ref) - before; d != keys*keyDraws(cfg) {
		t.Fatalf("deriving every key drew %d polynomials, want %d (%d keys, %d each)", d, keys*keyDraws(cfg), keys, keyDraws(cfg))
	}

	ctx := observed(t, cfg)
	in := keyInput(t, ctx)
	before = draws(ctx)
	got := make([][][]byte, len(ops))
	errs := make([]error, len(ops))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, op := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i], errs[i] = op.run(ctx, in)
		}()
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", ops[i].name, err)
		}
	}
	if d := draws(ctx) - before; d != keys*keyDraws(cfg) {
		t.Fatalf("concurrent first uses drew %d polynomials, one derivation of every key draws %d", d, keys*keyDraws(cfg))
	}
	sameOutputs(t, "concurrent first use", ops, got, want)
}

// TestConstructionDrawsNoEvaluationKey: NewContext and Restore draw the
// secret and public keys from the main stream and no evaluation key, and an
// op derives exactly the one key it reads.
func TestConstructionDrawsNoEvaluationKey(t *testing.T) {
	cfg := snapshotTestConfig()
	ctx := observed(t, cfg)
	var snap bytes.Buffer
	if err := ctx.WriteSessionSnapshot(&snap, fast.SessionMeta{ID: "s1"}); err != nil {
		t.Fatal(err)
	}
	restored, _, err := fast.ReadSessionSnapshot(&snap, fast.WithObserver(fast.NewObserver()))
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*fast.Context{"NewContext": ctx, "Restore": restored} {
		if d := draws(c); d != 0 {
			t.Fatalf("%s drew %d polynomials through the evaluation keys' streams", name, d)
		}
		in := keyInput(t, c)
		before := draws(c)
		if _, err := c.Rotate(in, 4); err != nil {
			t.Fatal(err)
		}
		if d := draws(c) - before; d != keyDraws(cfg) {
			t.Fatalf("%s: a rotation by 4 drew %d polynomials, one key is %d", name, d, keyDraws(cfg))
		}
	}
}

// TestFanoutDerivesThreeOfSevenKeys: a DefaultConfig context names seven
// hybrid keys (relinearization, rotations 1, −1, 2, 4, 8, conjugation); the
// served fan-out program reads rotations 1, 4 and −1, so running it derives
// those three and no other.
func TestFanoutDerivesThreeOfSevenKeys(t *testing.T) {
	cfg := fast.DefaultConfig()
	ctx := observed(t, cfg)
	plan, err := ctx.Plan(fast.NewProgram().In("x").
		Rotate("a", "x", 1).Rotate("b", "x", 4).Rotate("c", "x", -1).
		Add("s1", "a", "b").Add("s2", "s1", "c").AddConst("out", "s2", 0.5).
		Return("out"), nil)
	if err != nil {
		t.Fatal(err)
	}
	in := keyInput(t, ctx)
	before := draws(ctx)
	for range 2 {
		if _, err := ctx.Execute(context.Background(), plan, map[string]*fast.Ciphertext{"x": in}); err != nil {
			t.Fatal(err)
		}
	}
	if d := draws(ctx) - before; d != 3*keyDraws(cfg) {
		t.Fatalf("two fan-out runs drew %d polynomials, want 3 keys of %d", d, keyDraws(cfg))
	}
}

// TestRepeatedRotationNamesOneKey: rotations 1, 1 and 1+slots have one Galois
// element, so the config names one key for them, derived once whichever
// amount reads it first, and the three amounts rotate alike.
func TestRepeatedRotationNamesOneKey(t *testing.T) {
	cfg := fast.ContextConfig{LogN: 9, Levels: 3, Rotations: []int{1, 1, 1 + 256}}
	ctx := observed(t, cfg)
	in := keyInput(t, ctx)
	before := draws(ctx)
	var outs [][]byte
	for _, r := range cfg.Rotations {
		out, err := ctx.Rotate(in, r)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out.AppendBinary(nil))
	}
	if d := draws(ctx) - before; d != keyDraws(cfg) {
		t.Fatalf("three rotations of one element drew %d polynomials, one key is %d", d, keyDraws(cfg))
	}
	if !bytes.Equal(outs[0], outs[1]) || !bytes.Equal(outs[0], outs[2]) {
		t.Fatal("rotations by 1 and by 1+slots differ")
	}
}

// TestSeedOutsideRangeRefused: the secret key's stream reduces its seed
// modulo 2^31−1, so seeds 1 and 2^31 once built the same secret under two
// names. NewContext and NewBootstrapContext refuse a seed outside
// [1, 2^31−2]; a snapshot whose header names one still restores.
func TestSeedOutsideRangeRefused(t *testing.T) {
	cfg := fast.ContextConfig{LogN: 9, Levels: 2}
	for _, seed := range []int64{1 << 31, 1<<31 - 1, -1, math.MaxInt64} {
		cfg.Seed = seed
		if _, err := fast.NewContext(cfg); !errors.Is(err, fast.ErrInvalidParameters) {
			t.Fatalf("seed %d: NewContext error %v, want ErrInvalidParameters", seed, err)
		}
	}
	if _, err := fast.NewBootstrapContext(fast.BootstrapContextConfig{LogN: 10, Levels: 17, Seed: 1 << 31}); !errors.Is(err, fast.ErrInvalidParameters) {
		t.Fatalf("seed 2^31: NewBootstrapContext error %v, want ErrInvalidParameters", err)
	}
	cfg.Seed = 1<<31 - 2
	_, snap := snapshotBytes(t, cfg, fast.SessionMeta{ID: "s1"})
	hdr := snapshotHeader(snap)
	edited := bytes.Replace(hdr, []byte(`"Seed":2147483646`), []byte(`"Seed":2147483648`), 1)
	if bytes.Equal(edited, hdr) {
		t.Fatalf("header %s has no seed 2^31−2", hdr)
	}
	restored, _, err := fast.ReadSessionSnapshot(bytes.NewReader(withHeader(snap, edited)))
	if err != nil {
		t.Fatalf("a header naming seed 2^31: %v", err)
	}
	if got := restored.Config().Seed; got != 1<<31 {
		t.Fatalf("restored seed %d, want 2^31", got)
	}
}

// TestKLSSSnapshotStoresNoKLSSKeys: an EnableKLSS context's snapshot is the
// same seed's hybrid-only snapshot but for the header's "EnableKLSS" — no
// key of either kind is stored — and it does not change once the context
// has derived its KLSS keys.
func TestKLSSSnapshotStoresNoKLSSKeys(t *testing.T) {
	meta := fast.SessionMeta{ID: "s1"}
	hybridOnly := snapshotTestConfig()
	hybridOnly.EnableKLSS = false
	_, want := snapshotBytes(t, hybridOnly, meta)
	ctx, snap := snapshotBytes(t, snapshotTestConfig(), meta)
	wantHdr := bytes.Replace(snapshotHeader(want), []byte(`"EnableKLSS":false`), []byte(`"EnableKLSS":true`), 1)
	if !bytes.Equal(snap, withHeader(want, wantHdr)) {
		t.Fatalf("EnableKLSS snapshot (%d bytes) is not the hybrid-only one (%d bytes) with EnableKLSS set", len(snap), len(want))
	}
	runKeyOps(t, keyOps(fast.KLSS), ctx, keyInput(t, ctx))
	var after bytes.Buffer
	if err := ctx.WriteSessionSnapshot(&after, meta); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after.Bytes(), snap) {
		t.Fatal("the snapshot changed once the context had derived its KLSS keys")
	}
}

// TestKLSSOutputsSurviveSnapshotRestore: derive → snapshot → restore →
// derive, twice over. The restored contexts derive the source's KLSS keys
// again, so every KLSS output is byte-identical to the source's.
func TestKLSSOutputsSurviveSnapshotRestore(t *testing.T) {
	ctx, err := fast.NewContext(snapshotTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	ops := keyOps(fast.KLSS)
	in := keyInput(t, ctx)
	wire := in.AppendBinary(nil)
	want := runKeyOps(t, ops, ctx, in)
	for gen := 1; gen <= 2; gen++ {
		var buf bytes.Buffer
		if err := ctx.WriteSessionSnapshot(&buf, fast.SessionMeta{ID: "s1", Restores: uint64(gen)}); err != nil {
			t.Fatal(err)
		}
		if ctx, _, err = fast.ReadSessionSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		rin, err := ctx.ReadCiphertextBytes(wire)
		if err != nil {
			t.Fatal(err)
		}
		sameOutputs(t, fmt.Sprintf("restore %d", gen), ops, runKeyOps(t, ops, ctx, rin), want)
	}
}
