package fast_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	fast "github.com/fastfhe/fast"
)

// klssOps are the eight KLSS-pinned ops the tests below run, one per
// goroutine in the concurrent test: between them they read every key the
// derivation generates — the relinearization key, each rotation key of
// snapshotTestConfig, the conjugation key — singly, twice, and as a hoisted
// fan-out over all three rotations.
var klssOps = []struct {
	name string
	run  func(ctx *fast.Context, ct *fast.Ciphertext) ([][]byte, error)
}{
	{"mul", func(ctx *fast.Context, ct *fast.Ciphertext) ([][]byte, error) {
		return wires(ctx.Mul(ct, ct, fast.WithMethod(fast.KLSS)))
	}},
	{"rot1", func(ctx *fast.Context, ct *fast.Ciphertext) ([][]byte, error) {
		return wires(ctx.Rotate(ct, 1, fast.WithMethod(fast.KLSS)))
	}},
	{"rot-1", func(ctx *fast.Context, ct *fast.Ciphertext) ([][]byte, error) {
		return wires(ctx.Rotate(ct, -1, fast.WithMethod(fast.KLSS)))
	}},
	{"rot4", func(ctx *fast.Context, ct *fast.Ciphertext) ([][]byte, error) {
		return wires(ctx.Rotate(ct, 4, fast.WithMethod(fast.KLSS)))
	}},
	{"conj", func(ctx *fast.Context, ct *fast.Ciphertext) ([][]byte, error) {
		return wires(ctx.Conjugate(ct, fast.WithMethod(fast.KLSS)))
	}},
	{"hoisted", func(ctx *fast.Context, ct *fast.Ciphertext) ([][]byte, error) {
		outs, err := ctx.RotateHoisted(ct, []int{1, -1, 4}, fast.WithMethod(fast.KLSS))
		if err != nil {
			return nil, err
		}
		return [][]byte{outs[1].AppendBinary(nil), outs[-1].AppendBinary(nil), outs[4].AppendBinary(nil)}, nil
	}},
	{"mul-again", func(ctx *fast.Context, ct *fast.Ciphertext) ([][]byte, error) {
		return wires(ctx.Mul(ct, ct, fast.WithMethod(fast.KLSS), fast.NoRescale()))
	}},
	{"rot1-again", func(ctx *fast.Context, ct *fast.Ciphertext) ([][]byte, error) {
		return wires(ctx.Rotate(ct, 1, fast.WithMethod(fast.KLSS)))
	}},
}

func wires(ct *fast.Ciphertext, err error) ([][]byte, error) {
	if err != nil {
		return nil, err
	}
	return [][]byte{ct.AppendBinary(nil)}, nil
}

// klssInput encrypts the tests' input on ctx: the first encrypt of a context
// of snapshotTestConfig, so every such context gets the same bytes.
func klssInput(t *testing.T, ctx *fast.Context) *fast.Ciphertext {
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

// runKLSSOps runs every op of klssOps in order and returns their outputs.
func runKLSSOps(t *testing.T, ctx *fast.Context, ct *fast.Ciphertext) [][][]byte {
	t.Helper()
	out := make([][][]byte, len(klssOps))
	for i, op := range klssOps {
		var err error
		if out[i], err = op.run(ctx, ct); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
	}
	return out
}

func sameOutputs(t *testing.T, what string, got, want [][][]byte) {
	t.Helper()
	for i := range want {
		for j := range want[i] {
			if !bytes.Equal(got[i][j], want[i][j]) {
				t.Fatalf("%s: %s output %d differs from the reference", what, klssOps[i].name, j)
			}
		}
	}
}

// draws reads the context's sampler draw counter: encrypts and the KLSS key
// derivation count there, hybrid ops do not.
func draws(ctx *fast.Context) uint64 {
	return ctx.Metrics().Counters["ckks.sampler.draws"]
}

// TestKLSSKeysDerivedOnceUnderConcurrentFirstUse: eight goroutines make a
// fresh context's first KLSS ops at once. The KLSS keys are generated exactly
// once — the draw counter moves by one derivation's draws, two per gadget
// group of each of the five keys — and every output is byte-identical to a
// context of the same seed that ran the same ops from one goroutine. Before
// that, hybrid ops on the same context generate no KLSS key.
func TestKLSSKeysDerivedOnceUnderConcurrentFirstUse(t *testing.T) {
	cfg := snapshotTestConfig()
	newCtx := func() (*fast.Context, *fast.Ciphertext) {
		ctx, err := fast.NewContext(cfg, fast.WithObserver(fast.NewObserver()))
		if err != nil {
			t.Fatal(err)
		}
		return ctx, klssInput(t, ctx)
	}
	ref, refIn := newCtx()
	before := draws(ref)
	want := runKLSSOps(t, ref, refIn)
	oneDerivation := draws(ref) - before
	groups := (cfg.Levels + 1 + 1) / 2 // β_T at the top level, α_T = 2
	if keys := 1 + len(cfg.Rotations) + 1; oneDerivation != uint64(2*groups*keys) {
		t.Fatalf("one derivation drew %d polynomials, want %d (2 per group, %d groups, %d keys)",
			oneDerivation, 2*groups*keys, groups, keys)
	}

	ctx, in := newCtx()
	before = draws(ctx)
	hybrid := fast.WithMethod(fast.Hybrid)
	if _, err := ctx.Mul(in, in, hybrid); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.RotateHoisted(in, []int{1, -1, 4}, hybrid); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Conjugate(in, hybrid); err != nil {
		t.Fatal(err)
	}
	if got := draws(ctx) - before; got != 0 {
		t.Fatalf("hybrid ops drew %d polynomials: a KLSS key was generated before the first KLSS op", got)
	}

	got := make([][][]byte, len(klssOps))
	errs := make([]error, len(klssOps))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, op := range klssOps {
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
			t.Fatalf("%s: %v", klssOps[i].name, err)
		}
	}
	if d := draws(ctx) - before; d != oneDerivation {
		t.Fatalf("concurrent first KLSS ops drew %d polynomials, one derivation draws %d", d, oneDerivation)
	}
	sameOutputs(t, "concurrent first use", got, want)
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
	runKLSSOps(t, ctx, klssInput(t, ctx))
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
	in := klssInput(t, ctx)
	wire := in.AppendBinary(nil)
	want := runKLSSOps(t, ctx, in)
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
		sameOutputs(t, fmt.Sprintf("restore %d", gen), runKLSSOps(t, ctx, rin), want)
	}
}
