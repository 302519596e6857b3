package fast

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"github.com/fastfhe/fast/internal/ckks"
)

// shapeTestConfig is a configuration no other test compiles (LogScale 29),
// so these tests see its compiled parameter set come into being themselves.
func shapeTestConfig(seed int64) ContextConfig {
	return ContextConfig{LogN: 9, Levels: 2, LogScale: 29, Rotations: []int{1}, EnableKLSS: true, Seed: seed}
}

// TestContextsShareCompiledParameters: contexts whose configurations differ
// only in Seed — built fresh or restored from a snapshot — share one compiled
// parameter set (the same rings and tables) and keep their own keys; a
// context of another configuration compiles its own.
func TestContextsShareCompiledParameters(t *testing.T) {
	a, err := NewContext(shapeTestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewContext(shapeTestConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if a.params.RingQ() != b.params.RingQ() || a.params.RingP() != b.params.RingP() {
		t.Fatal("contexts of one configuration but for Seed compiled separate rings")
	}
	if a.pk.B.Equal(b.pk.B) {
		t.Fatal("contexts of different seeds share a public key")
	}

	var snap bytes.Buffer
	if err := a.WriteSessionSnapshot(&snap, SessionMeta{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	restored, _, err := ReadSessionSnapshot(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.params.RingQ() != a.params.RingQ() {
		t.Fatal("a restore compiled its own rings beside a live context of its configuration")
	}
	if !restored.pk.B.Equal(a.pk.B) {
		t.Fatal("the restored context lost its keys")
	}

	cfg := shapeTestConfig(1)
	cfg.Levels = 3
	c, err := NewContext(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.params.RingQ() == a.params.RingQ() {
		t.Fatal("contexts of different configurations share rings")
	}
}

// TestNewContextConcurrentCompileOnce: eight goroutines creating contexts of
// one configuration nobody has compiled yet compile it once, and all of them
// get that compile.
func TestNewContextConcurrentCompileOnce(t *testing.T) {
	const workers = 8
	// A collection frees the contexts of an earlier run (-count), and with
	// them its compile: the configuration is new again.
	runtime.GC()
	before := ckks.ShapeCompiles()
	ctxs := make([]*Context, workers)
	errs := make([]error, workers)
	var start, done sync.WaitGroup
	start.Add(1)
	for w := range ctxs {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			cfg := shapeTestConfig(int64(w + 1))
			cfg.LogScale = 27 // apart from the test above
			ctxs[w], errs[w] = NewContext(cfg)
		}()
	}
	start.Done()
	done.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := ckks.ShapeCompiles() - before; got != 1 {
		t.Fatalf("%d concurrent creates compiled %d parameter sets, want 1", workers, got)
	}
	for _, c := range ctxs[1:] {
		if c.params.RingQ() != ctxs[0].params.RingQ() {
			t.Fatal("concurrent creates of one configuration hold different rings")
		}
	}
}
