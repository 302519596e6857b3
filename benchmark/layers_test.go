package main

import (
	"testing"

	fast "github.com/fastfhe/fast"
)

// The kernel probes build their CKKS instance from a hand-written mirror of
// the library's parameter compilation; checkProbePoint is what notices when
// the two part ways.
func TestProbePointDriftGuard(t *testing.T) {
	cfg := serveConfig(toySizing, 5)
	cfg.LogN = 10 // the smallest degree the security estimate — the guard's view of modulus width — has an entry for
	ctx, err := fast.NewContext(cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := func(cfg fast.ContextConfig) error {
		m := metricSet{}
		k, err := kernelLayers(newTracer(), 1, contextPoint(cfg, 1), m)
		if err != nil {
			t.Fatal(err)
		}
		return checkProbePoint(k, m, ctx)
	}
	if err := probe(cfg); err != nil {
		t.Errorf("the mirror of compileParameters has drifted: %v", err)
	}
	deeper, narrower, hybridOnly := cfg, cfg, cfg
	deeper.Levels++
	narrower.LogScale--
	hybridOnly.EnableKLSS = false
	for name, c := range map[string]fast.ContextConfig{"one more level": deeper, "narrower moduli": narrower, "no KLSS keys": hybridOnly} {
		if probe(c) == nil {
			t.Errorf("%s: probes at another parameter point passed the guard", name)
		}
	}
}
