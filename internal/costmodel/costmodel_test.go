package costmodel

import (
	"math"
	"testing"
)

func meanRatio(p Params, loLevel, hiLevel, hoist int) float64 {
	sum := 0.0
	for l := loLevel; l <= hiLevel; l++ {
		sum += p.QuantitativeLine(l, hoist)
	}
	return sum / float64(hiLevel-loLevel+1)
}

// The calibration anchors from the paper's motivation study (§3.1).
func TestQuantitativeLineBands(t *testing.T) {
	p := SetII()

	// Levels 25-35: KLSS reduces modular multiplications by ~15.2%, i.e.
	// hybrid/klss ≈ 1.18.
	if r := meanRatio(p, 25, 35, 1); r < 1.12 || r > 1.25 {
		t.Errorf("levels 25-35 mean ratio %.3f, want ~1.18 (KLSS ~15%% cheaper)", r)
	}
	// Levels 5-12: hybrid reduces modular multiplications by ~23.5%, i.e.
	// hybrid/klss well below 1.
	if r := meanRatio(p, 5, 12, 1); r < 0.70 || r > 0.88 {
		t.Errorf("levels 5-12 mean ratio %.3f, want ~0.77-0.80 (hybrid cheaper)", r)
	}
	// Levels 21-24: mixed region where KLSS may require more computation.
	low := math.Inf(1)
	for l := 21; l <= 24; l++ {
		if r := p.QuantitativeLine(l, 1); r < low {
			low = r
		}
	}
	if low >= 1.0 {
		t.Errorf("levels 21-24 should contain a point where hybrid wins, min ratio %.3f", low)
	}
}

// Hoisting makes KeyMult dominant, eroding the KLSS advantage (Fig. 3(a)).
func TestHoistingErodesKLSSAdvantage(t *testing.T) {
	p := SetII()
	for _, level := range []int{30, 35} {
		r1 := p.QuantitativeLine(level, 1)
		r6 := p.QuantitativeLine(level, 6)
		if r6 >= r1 {
			t.Errorf("level %d: ratio should fall with hoisting, h1=%.3f h6=%.3f", level, r1, r6)
		}
	}
}

// Hoisting must strictly reduce the per-rotation cost of both methods.
func TestHoistingAmortisesDecomposition(t *testing.T) {
	p := SetII()
	for _, m := range []Method{Hybrid, KLSS} {
		for _, level := range []int{10, 20, 35} {
			single := p.KeySwitch(m, level, 1).Total()
			six := p.KeySwitch(m, level, 6).Total()
			if six >= 6*single {
				t.Errorf("%v level %d: hoisted 6 rotations (%.0f) should cost less than 6 singles (%.0f)",
					m, level, six, 6*single)
			}
			if six <= single {
				t.Errorf("%v level %d: six rotations must cost more than one", m, level)
			}
		}
	}
}

func TestKernelNarrative(t *testing.T) {
	p := SetII()
	// At high levels KLSS spends fewer ops on NTT and more on KeyMult and
	// BConv than hybrid — the Fig. 2(b)/11(b) narrative.
	hy := p.HybridKeySwitch(35, 1)
	kl := p.KLSSKeySwitch(35, 1)
	if kl.NTT >= hy.NTT {
		t.Errorf("level 35: KLSS NTT %.0f should be below hybrid %.0f", kl.NTT, hy.NTT)
	}
	if kl.KeyMult <= hy.KeyMult {
		t.Errorf("level 35: KLSS KeyMult %.0f should exceed hybrid %.0f", kl.KeyMult, hy.KeyMult)
	}
	// At low levels KLSS loses its NTT edge (more limb groups).
	hyLo := p.HybridKeySwitch(5, 1)
	klLo := p.KLSSKeySwitch(5, 1)
	if klLo.NTT < 0.8*hyLo.NTT {
		t.Errorf("level 5: KLSS NTT %.0f should not be far below hybrid %.0f", klLo.NTT, hyLo.NTT)
	}
}

func TestBreakdownArithmetic(t *testing.T) {
	b := Breakdown{1, 2, 3, 4}
	if b.Total() != 10 {
		t.Fatalf("Total = %g", b.Total())
	}
	s := b.Add(b)
	if s.Total() != 20 || s.NTT != 2 {
		t.Fatalf("Add wrong: %+v", s)
	}
	if b.Scale(2).Total() != 20 {
		t.Fatal("Scale wrong")
	}
}

// Sizes must land near the paper's published working-set numbers (Fig. 3(b),
// §5.6): ct ≈ 19.7 MB, hybrid evk ≈ 79.3 MB, KLSS evk ≈ 295.3 MB at level 35.
func TestWorkingSetAnchors(t *testing.T) {
	p := SetII()
	const mb = 1 << 20
	ct := float64(p.CiphertextBytes(35)) / mb
	if ct < 17 || ct > 23 {
		t.Errorf("ciphertext size %.1f MB, want ~19.7-21 MB", ct)
	}
	hy := float64(p.EvkBytes(Hybrid, 35)) / mb
	if hy < 70 || hy > 92 {
		t.Errorf("hybrid evk %.1f MB, want ~79 MB", hy)
	}
	kl := float64(p.EvkBytes(KLSS, 35)) / mb
	if kl < 240 || kl > 330 {
		t.Errorf("KLSS evk %.1f MB, want ~295 MB", kl)
	}
	if kl/hy < 2.8 || kl/hy > 4.5 {
		t.Errorf("KLSS/hybrid evk ratio %.2f, want ~3.7", kl/hy)
	}
	ws := p.WorkingSetBytes(KLSS, 35, 4, 1)
	if ws != 4*p.CiphertextBytes(35)+p.EvkBytes(KLSS, 35) {
		t.Error("WorkingSetBytes composition wrong")
	}
	if p.WorkingSetBytes(Hybrid, 35, 1, 4) <= p.WorkingSetBytes(Hybrid, 35, 1, 1) {
		t.Error("hoisting must increase the working set")
	}
}

// Sizes grow monotonically with level.
func TestSizesMonotone(t *testing.T) {
	p := SetII()
	for l := 1; l <= 35; l++ {
		if p.CiphertextBytes(l) <= p.CiphertextBytes(l-1) {
			t.Fatalf("ct size not monotone at level %d", l)
		}
		for _, m := range []Method{Hybrid, KLSS} {
			if p.EvkBytes(m, l) < p.EvkBytes(m, l-1) {
				t.Fatalf("%v evk size decreasing at level %d", m, l)
			}
		}
	}
}

// The EKG moves exactly half of every key, and every key has an even byte
// count, so the halving is exact in integers and in floating point alike.
func TestMovedEvkBytesHalvesExactly(t *testing.T) {
	for _, logN := range []int{9, 11, 13, 16} {
		p := ForContext(logN, 35)
		for l := 0; l <= p.L; l++ {
			for _, m := range []Method{Hybrid, KLSS} {
				full := p.EvkBytes(m, l)
				if full%2 != 0 || 2*p.MovedEvkBytes(m, l) != full ||
					float64(full)/2 != float64(p.MovedEvkBytes(m, l)) {
					t.Fatalf("logN %d %v level %d: %d bytes, %d moved", logN, m, l, full, p.MovedEvkBytes(m, l))
				}
			}
		}
	}
}

// The hybrid formulas must be internally consistent with the dataflow: the
// decomposition cost (hoist-independent part) equals the h=2 minus h=1 delta
// subtracted from the single-shot cost.
func TestHybridHoistDecomposition(t *testing.T) {
	p := SetI()
	for _, level := range []int{7, 19, 35} {
		h1 := p.HybridKeySwitch(level, 1).Total()
		h2 := p.HybridKeySwitch(level, 2).Total()
		h3 := p.HybridKeySwitch(level, 3).Total()
		// Per-rotation increments are constant.
		if math.Abs((h2-h1)-(h3-h2)) > 1e-6*h1 {
			t.Fatalf("level %d: hoist increments not linear", level)
		}
	}
}

func TestMethodString(t *testing.T) {
	if Hybrid.String() != "hybrid" || KLSS.String() != "klss" {
		t.Fatal("method names wrong")
	}
	if Method(7).String() == "" {
		t.Fatal("unknown method should print something")
	}
}

func TestKernelBits(t *testing.T) {
	if Hybrid.KernelBits() != 36 || KLSS.KernelBits() != 60 {
		t.Fatalf("kernel widths: hybrid %d, klss %d", Hybrid.KernelBits(), KLSS.KernelBits())
	}
}

func TestKeySwitchDispatch(t *testing.T) {
	p := SetII()
	if p.KeySwitch(Hybrid, 20, 1) != p.HybridKeySwitch(20, 1) {
		t.Fatal("dispatch hybrid wrong")
	}
	if p.KeySwitch(KLSS, 20, 1) != p.KLSSKeySwitch(20, 1) {
		t.Fatal("dispatch klss wrong")
	}
	// hoist < 1 is clamped.
	if p.KeySwitch(Hybrid, 20, 0) != p.KeySwitch(Hybrid, 20, 1) {
		t.Fatal("hoist clamp wrong")
	}
}
