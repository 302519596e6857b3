// Package workloads generates the operation traces of the paper's benchmark
// suite (§6.2): fully-packed CKKS bootstrapping, HELR logistic-regression
// training iterations (batch 256 and 1024), and ResNet-20 inference on an
// encrypted 32x32x3 image. The traces encode the published operation
// structure — BSGS homomorphic DFTs with hoisted baby-step rotations,
// double-rescale level accounting (each HMult/PMult consumes two levels),
// and bootstrap-dominated execution — and are consumed by the Aether
// planner and the cycle simulator.
package workloads

import (
	"fmt"
	"strings"

	"github.com/fastfhe/fast/internal/trace"
)

// Profile fixes the CKKS parameter shape the traces assume (paper Table 2).
type Profile struct {
	L     int // maximum level (35)
	LEff  int // usable level after bootstrapping (8)
	Slots int // message slots (2^15 fully packed)

	// Bootstrap structure.
	CtSMatrices  int // homomorphic DFT factors in CoeffToSlot (3)
	BabySteps    int // hoisted rotations per DFT factor (8)
	GiantSteps   int // sequential giant-step rotations per factor (4)
	EvalModMults int // HMult depth of the approximate mod-reduction (7)

	// OFLimb enables ARK's on-the-fly limb extension (adopted by the
	// paper's methodology, §6.1): right after ModRaise the ciphertext is
	// fully determined by its base limbs, so the CoeffToSlot stage executes
	// at a small effective limb count and materialises further limbs on the
	// fly instead of key-switching 36-limb polynomials.
	OFLimb bool
}

// DefaultProfile matches the paper's Set-I/Set-II shape.
func DefaultProfile() Profile {
	return Profile{
		L:            35,
		LEff:         8,
		Slots:        1 << 15,
		CtSMatrices:  3,
		BabySteps:    8,
		GiantSteps:   4,
		EvalModMults: 7,
		OFLimb:       true,
	}
}

// named lists the benchmark traces under their command-line names.
var named = []struct {
	name string
	gen  func(Profile) *trace.Trace
}{
	{"bootstrap", Bootstrap},
	{"helr256", func(p Profile) *trace.Trace { return HELR(p, 256) }},
	{"helr1024", func(p Profile) *trace.Trace { return HELR(p, 1024) }},
	{"resnet20", ResNet20},
}

// ByName generates the trace a command line names (one of Names) at the
// default profile.
func ByName(name string) (*trace.Trace, error) {
	for _, n := range named {
		if n.name == name {
			return n.gen(DefaultProfile()), nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Names returns the names ByName accepts, comma-separated for a usage line.
func Names() string {
	names := make([]string, len(named))
	for i, n := range named {
		names[i] = n.name
	}
	return strings.Join(names, ", ")
}

// dftFactor appends one BSGS homomorphic-DFT factor at the given level:
// a hoisted baby-step rotation group, sequential giant-step rotations of the
// accumulated ciphertexts (not hoistable: different ciphertexts), the
// diagonal plaintext multiplications, and the double rescale. Returns the
// level after the factor.
func (p Profile) dftFactor(t *trace.Trace, phase string, level, ctBase int) int {
	baby := make([]int, p.BabySteps)
	for i := range baby {
		baby[i] = i + 1
	}
	t.Append(trace.Op{Kind: trace.HRot, Level: level, Hoist: p.BabySteps, Rotations: baby, Phase: phase, CtID: ctBase})
	for g := 0; g < p.GiantSteps; g++ {
		t.Append(trace.Op{Kind: trace.HRot, Level: level, Rotations: []int{(g + 1) * p.BabySteps}, Phase: phase, CtID: ctBase + 1 + g})
	}
	for d := 0; d < p.BabySteps*p.GiantSteps; d++ {
		t.Append(trace.Op{Kind: trace.PMult, Level: level, Phase: phase, CtID: ctBase})
	}
	for a := 0; a < p.BabySteps*p.GiantSteps-1; a++ {
		t.Append(trace.Op{Kind: trace.HAdd, Level: level, Phase: phase, CtID: ctBase})
	}
	// Double rescale (36-bit limbs need two rescales per multiplicative
	// stage to hold precision, §5.7.1).
	t.Append(trace.Op{Kind: trace.Rescale, Level: level, Phase: phase, CtID: ctBase})
	t.Append(trace.Op{Kind: trace.Rescale, Level: level - 1, Phase: phase, CtID: ctBase})
	return level - 2
}

// appendBootstrap appends a full bootstrapping pipeline starting from an
// exhausted ciphertext, returning the level the refreshed ciphertext ends at
// (LEff).
func (p Profile) appendBootstrap(t *trace.Trace, ctBase int) int {
	level := p.L
	t.Append(trace.Op{Kind: trace.ModRaise, Level: level, Phase: "ModRaise", CtID: ctBase})

	for m := 0; m < p.CtSMatrices; m++ {
		exec := level
		if p.OFLimb {
			// Effective limb count under on-the-fly extension: the stage
			// works near the bottom of the chain and regenerates limbs.
			if eff := p.LEff + 2*(p.CtSMatrices-m); eff < exec {
				exec = eff
			}
		}
		p.dftFactor(t, "CoeffToSlot", exec, ctBase)
		level -= 2
	}
	// EvalMod: BSGS Chebyshev evaluation; each HMult is followed by the
	// double rescale.
	for i := 0; i < p.EvalModMults; i++ {
		t.Append(trace.Op{Kind: trace.HMult, Level: level, Phase: "EvalMod", CtID: ctBase})
		t.Append(trace.Op{Kind: trace.CMult, Level: level, Phase: "EvalMod", CtID: ctBase})
		t.Append(trace.Op{Kind: trace.Rescale, Level: level, Phase: "EvalMod", CtID: ctBase})
		t.Append(trace.Op{Kind: trace.Rescale, Level: level - 1, Phase: "EvalMod", CtID: ctBase})
		level -= 2
	}
	for m := 0; m < p.CtSMatrices; m++ {
		level = p.dftFactor(t, "SlotToCoeff", level, ctBase)
	}
	// INVARIANT: profiles are package-internal constants (DefaultProfile); no user input reaches this check.
	// A panic here is a repo-internal bug, never a reaction to caller input —
	// malformed inputs are rejected with typed errors at the public boundary.
	if level < p.LEff {
		panic(fmt.Sprintf("workloads: bootstrap profile exhausts the chain (ends at %d, want >= %d)", level, p.LEff))
	}
	return p.LEff
}

// Bootstrap returns the standalone fully-packed bootstrapping trace.
func Bootstrap(p Profile) *trace.Trace {
	t := &trace.Trace{Name: "Bootstrap", Slots: p.Slots}
	p.appendBootstrap(t, 0)
	if err := t.Validate(); err != nil {
		// INVARIANT: traces are generated from fixed in-repo profiles; a
		// validation failure is a bug in the generator, not caller input.
		panic(err)
	}
	return t
}

// HELR returns one logistic-regression training iteration (batch images
// packed into ciphertexts) including its bootstrap, matching the HELR256 /
// HELR1024 benchmark rows. Larger batches add ciphertexts to the gradient
// computation but share the bootstrap.
func HELR(p Profile, batch int) *trace.Trace {
	t := &trace.Trace{Name: fmt.Sprintf("HELR%d", batch), Slots: p.Slots}
	// HELR packs the batch sparsely, so its bootstrap evaluates a narrower
	// homomorphic DFT than the fully-packed pipeline.
	p.BabySteps = 6
	p.GiantSteps = 3
	p.EvalModMults = 6
	cts := batch / 256 // ciphertexts holding the batch
	if cts < 1 {
		cts = 1
	}
	level := p.LEff
	// Gradient step: inner products via rotation trees + sigmoid poly
	// (degree 7 -> 3 mults).
	for c := 0; c < cts; c++ {
		t.Append(trace.Op{Kind: trace.PMult, Level: level, Phase: "Gradient", CtID: c})
		rots := []int{1, 2, 4, 8, 16}
		t.Append(trace.Op{Kind: trace.HRot, Level: level, Hoist: len(rots), Rotations: rots, Phase: "Gradient", CtID: c})
		t.Append(trace.Op{Kind: trace.Rescale, Level: level, Phase: "Gradient", CtID: c})
	}
	level--
	for i := 0; i < 3; i++ { // sigmoid polynomial
		t.Append(trace.Op{Kind: trace.HMult, Level: level, Phase: "Sigmoid", CtID: 0})
		t.Append(trace.Op{Kind: trace.Rescale, Level: level, Phase: "Sigmoid", CtID: 0})
		t.Append(trace.Op{Kind: trace.Rescale, Level: level - 1, Phase: "Sigmoid", CtID: 0})
		level -= 2
	}
	for c := 0; c < cts; c++ { // weight update
		t.Append(trace.Op{Kind: trace.PMult, Level: level, Phase: "Update", CtID: c})
		t.Append(trace.Op{Kind: trace.HAdd, Level: level, Phase: "Update", CtID: c})
	}
	p.appendBootstrap(t, 100)
	if err := t.Validate(); err != nil {
		// INVARIANT: traces are generated from fixed in-repo profiles; a
		// validation failure is a bug in the generator, not caller input.
		panic(err)
	}
	return t
}

// HELRTraining returns the full multi-iteration logistic-regression
// training run the paper's HELR description gives (32 iterations over the
// batch, §6.2): each iteration is the single-iteration HELR trace, and the
// per-iteration bootstrap carries the weights between iterations.
func HELRTraining(p Profile, batch, iterations int) *trace.Trace {
	t := &trace.Trace{Name: fmt.Sprintf("HELR%d-x%d", batch, iterations), Slots: p.Slots}
	for it := 0; it < iterations; it++ {
		one := HELR(p, batch)
		for _, op := range one.Ops {
			op.CtID += it * 10000 // iterations touch fresh ciphertexts
			t.Append(op)
		}
	}
	if err := t.Validate(); err != nil {
		// INVARIANT: traces are generated from fixed in-repo profiles; a
		// validation failure is a bug in the generator, not caller input.
		panic(err)
	}
	return t
}

// ResNet20 returns the encrypted CNN inference trace: a stem convolution,
// three stages of residual blocks (convolutions as hoisted-rotation +
// diagonal-multiply linear maps, ReLU as a polynomial), average pooling and
// the final dense layer, with bootstraps interleaved whenever the level
// budget runs out — the structure of the multiplexed-parallel-convolution
// CKKS ResNet the paper benchmarks.
func ResNet20(p Profile) *trace.Trace {
	t := &trace.Trace{Name: "ResNet-20", Slots: p.Slots}
	ct := 0
	level := p.LEff

	conv := func(phase string, rotations int) {
		rots := make([]int, rotations)
		for i := range rots {
			rots[i] = i + 1
		}
		t.Append(trace.Op{Kind: trace.HRot, Level: level, Hoist: rotations, Rotations: rots, Phase: phase, CtID: ct})
		for d := 0; d < 2*rotations; d++ {
			t.Append(trace.Op{Kind: trace.PMult, Level: level, Phase: phase, CtID: ct})
		}
		t.Append(trace.Op{Kind: trace.Rescale, Level: level, Phase: phase, CtID: ct})
		t.Append(trace.Op{Kind: trace.Rescale, Level: level - 1, Phase: phase, CtID: ct})
		level -= 2
	}
	relu := func(phase string) {
		// Degree-27 minimax composite: 3 HMult stages fit the level
		// budget between bootstraps.
		for i := 0; i < 3; i++ {
			t.Append(trace.Op{Kind: trace.HMult, Level: level, Phase: phase, CtID: ct})
			t.Append(trace.Op{Kind: trace.Rescale, Level: level, Phase: phase, CtID: ct})
			t.Append(trace.Op{Kind: trace.Rescale, Level: level - 1, Phase: phase, CtID: ct})
			level -= 2
		}
	}
	bootstrap := func() {
		level = p.appendBootstrap(t, 1000+ct)
	}

	conv("Stem", 9)
	bootstrap()
	for stage := 0; stage < 3; stage++ {
		for block := 0; block < 3; block++ {
			phase := fmt.Sprintf("Stage%d", stage+1)
			conv(phase, 9)
			bootstrap()
			relu(phase)
			bootstrap()
			conv(phase, 9)
			bootstrap()
			relu(phase)
			bootstrap()
			t.Append(trace.Op{Kind: trace.HAdd, Level: level, Phase: phase, CtID: ct}) // residual add
			ct++
		}
	}
	// Average pooling (rotation tree) + fully connected layer.
	rots := []int{1, 2, 4, 8, 16, 32}
	t.Append(trace.Op{Kind: trace.HRot, Level: level, Hoist: len(rots), Rotations: rots, Phase: "Pool", CtID: ct})
	conv("FC", 10)
	bootstrap()

	if err := t.Validate(); err != nil {
		// INVARIANT: traces are generated from fixed in-repo profiles; a
		// validation failure is a bug in the generator, not caller input.
		panic(err)
	}
	return t
}
