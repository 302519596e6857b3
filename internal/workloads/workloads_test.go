package workloads

import (
	"testing"

	"github.com/fastfhe/fast/internal/trace"
)

func TestBootstrapStructure(t *testing.T) {
	p := DefaultProfile()
	tr := Bootstrap(p)
	if err := tr.Validate(); err != nil {
		t.Fatalf("bootstrap trace invalid: %v", err)
	}
	phases := tr.Phases()
	want := []string{"ModRaise", "CoeffToSlot", "EvalMod", "SlotToCoeff"}
	if len(phases) != len(want) {
		t.Fatalf("phases = %v, want %v", phases, want)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("phase %d = %q, want %q", i, phases[i], want[i])
		}
	}
	// (baby group + giants) per DFT factor, twice (CtS + StC), plus the
	// EvalMod multiplications.
	wantKS := 2*p.CtSMatrices*(p.BabySteps+p.GiantSteps) + p.EvalModMults
	if got := tr.KeySwitchCount(); got != wantKS {
		t.Errorf("key-switch count %d, want %d", got, wantKS)
	}
}

func TestBootstrapLevelsNeverBelowLEff(t *testing.T) {
	p := DefaultProfile()
	tr := Bootstrap(p)
	for i, op := range tr.Ops {
		if op.Kind == trace.HMult && op.Level-1 < 0 {
			t.Fatalf("op %d: EvalMod mult would underflow the chain", i)
		}
	}
}

func TestBootstrapExhaustedProfilePanics(t *testing.T) {
	p := DefaultProfile()
	p.EvalModMults = 20 // consumes 40 levels > L
	defer func() {
		if recover() == nil {
			t.Error("expected panic for level-exhausting profile")
		}
	}()
	Bootstrap(p)
}

func TestOFLimbCapsCoeffToSlotLevels(t *testing.T) {
	p := DefaultProfile()
	tr := Bootstrap(p)
	maxCtS := 0
	for _, op := range tr.Ops {
		if op.Phase == "CoeffToSlot" && op.Level > maxCtS {
			maxCtS = op.Level
		}
	}
	if maxCtS > p.LEff+2*p.CtSMatrices {
		t.Errorf("OF-Limb CtS level %d exceeds cap %d", maxCtS, p.LEff+2*p.CtSMatrices)
	}

	p.OFLimb = false
	tr = Bootstrap(p)
	maxCtS = 0
	for _, op := range tr.Ops {
		if op.Phase == "CoeffToSlot" && op.Level > maxCtS {
			maxCtS = op.Level
		}
	}
	if maxCtS != p.L {
		t.Errorf("without OF-Limb CtS should start at L=%d, got %d", p.L, maxCtS)
	}
}

func TestHELRVariants(t *testing.T) {
	p := DefaultProfile()
	h256 := HELR(p, 256)
	h1024 := HELR(p, 1024)
	if h256.Name != "HELR256" || h1024.Name != "HELR1024" {
		t.Fatalf("names: %q, %q", h256.Name, h1024.Name)
	}
	if len(h1024.Ops) <= len(h256.Ops) {
		t.Error("HELR1024 must carry more compute ops than HELR256")
	}
	for _, tr := range []*traceAlias{{h256}, {h1024}} {
		if err := tr.t.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", tr.t.Name, err)
		}
	}
	// The batch only changes the gradient part: both share one bootstrap.
	if b256, b1024 := countPhase(h256, "CoeffToSlot"), countPhase(h1024, "CoeffToSlot"); b256 != b1024 {
		t.Errorf("bootstrap structure should be batch-independent: %d vs %d", b256, b1024)
	}
}

type traceAlias struct{ t *trace.Trace }

func countPhase(tr *trace.Trace, phase string) int {
	n := 0
	for _, op := range tr.Ops {
		if op.Phase == phase {
			n++
		}
	}
	return n
}

func TestResNet20Structure(t *testing.T) {
	p := DefaultProfile()
	tr := ResNet20(p)
	if err := tr.Validate(); err != nil {
		t.Fatalf("resnet trace invalid: %v", err)
	}
	// Bootstrap-dominated: count ModRaise ops (one per bootstrap).
	boots := 0
	for _, op := range tr.Ops {
		if op.Kind == trace.ModRaise {
			boots++
		}
	}
	if boots < 30 || boots > 50 {
		t.Errorf("ResNet-20 should bootstrap ~38-44 times, got %d", boots)
	}
	// Three stages plus stem/pool/FC phases must appear.
	for _, ph := range []string{"Stem", "Stage1", "Stage2", "Stage3", "Pool", "FC"} {
		if countPhase(tr, ph) == 0 {
			t.Errorf("missing phase %q", ph)
		}
	}
}

func TestTracesAreDeterministic(t *testing.T) {
	p := DefaultProfile()
	a, b := Bootstrap(p), Bootstrap(p)
	if len(a.Ops) != len(b.Ops) {
		t.Fatal("bootstrap generator not deterministic")
	}
	for i := range a.Ops {
		if a.Ops[i].Kind != b.Ops[i].Kind || a.Ops[i].Level != b.Ops[i].Level {
			t.Fatalf("op %d differs between runs", i)
		}
	}
}

func TestHELRTraining(t *testing.T) {
	p := DefaultProfile()
	one := HELR(p, 256)
	full := HELRTraining(p, 256, 32)
	if err := full.Validate(); err != nil {
		t.Fatalf("training trace invalid: %v", err)
	}
	if len(full.Ops) != 32*len(one.Ops) {
		t.Errorf("32 iterations should have 32x the ops: %d vs %d", len(full.Ops), 32*len(one.Ops))
	}
	if full.Name != "HELR256-x32" {
		t.Errorf("name %q", full.Name)
	}
	// Ciphertext IDs must not collide across iterations (hoisting analysis).
	if full.Ops[0].CtID == full.Ops[len(one.Ops)].CtID {
		t.Error("iterations should touch distinct ciphertexts")
	}
}

// Every command-line name generates its trace at the default profile; anything
// else is an error naming the input.
func TestByName(t *testing.T) {
	p := DefaultProfile()
	want := map[string]*trace.Trace{
		"bootstrap": Bootstrap(p), "helr256": HELR(p, 256), "helr1024": HELR(p, 1024), "resnet20": ResNet20(p),
	}
	if got := Names(); got != "bootstrap, helr256, helr1024, resnet20" {
		t.Errorf("Names() = %q", got)
	}
	for name, tr := range want {
		got, err := ByName(name)
		if err != nil || got.Name != tr.Name || len(got.Ops) != len(tr.Ops) {
			t.Errorf("ByName(%q) = %v, %v; want %s", name, got, err, tr.Name)
		}
	}
	if _, err := ByName("helr512"); err == nil || err.Error() != `unknown workload "helr512"` {
		t.Errorf("ByName(helr512) error = %v", err)
	}
}
