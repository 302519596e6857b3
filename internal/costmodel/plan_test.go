package costmodel

import "testing"

func TestForContextResizes(t *testing.T) {
	p := ForContext(11, 5)
	if p.LogN != 11 || p.L != 5 {
		t.Fatalf("got LogN=%d L=%d, want 11/5", p.LogN, p.L)
	}
	// Zero values fall back to the daemon's historical laptop defaults.
	p = ForContext(0, 0)
	if p.LogN != 11 || p.L != 5 {
		t.Fatalf("fallback: got LogN=%d L=%d, want 11/5", p.LogN, p.L)
	}
}

// deepShape is lib_deep's context: log_n 13, 11 levels over 36-bit primes
// (q0 50 bits), hybrid over two 50-bit P primes, KLSS over two 60-bit T
// primes, both with digits of two.
var deepShape = Shape{LogN: 13, L: 11, Alpha: 2, AlphaT: 2, P: 2, T: 2, QLane: 1, PLane: 1, TLane: 2}

func TestPassUnits(t *testing.T) {
	s := Shape{LogN: 11, L: 5, QLane: 1}
	if got, want := s.PassUnits(), float64(1<<11)*6; got != want {
		t.Fatalf("PassUnits = %g, want %g", got, want)
	}
}

func TestLaneWeight(t *testing.T) {
	for _, c := range []struct {
		bits []int
		want int
	}{
		{nil, 1},
		{[]int{36, 50, 51}, 1},
		{[]int{50, 52}, 2},
		{[]int{60, 60}, 2},
	} {
		if got := LaneWeight(c.bits...); got != c.want {
			t.Fatalf("LaneWeight(%v) = %d, want %d", c.bits, got, c.want)
		}
	}
}

// The count at lib_deep's 4-way hoist group (level 9: k = 10 Q rows, five
// digits of two), tallied per coefficient by stage. An NTT row is
// (N/2)·logN = 6.5 N.
//
//	hybrid ModUp:    10 INTTs 65 + 5 × (BConv 2+16+4, NTTs 10 × 6.5) = 500
//	hybrid rotation: KeyMult 2×5×12 + automorph of the product 2×12 + ModDown
//	                 2 × (2 INTTs 13, BConv 2+20, 10 NTTs 65, 10 subtractions)
//	                 = 364
//	KLSS ModUp:      65 + 5 × (BConv 2+16+8, NTTs (8 + 2×2) × 6.5) = 585
//	KLSS rotation:   2×5×(10+4) + 24 + 2 × (26 + 4+40 + 65 + 10) = 454
func TestShapeKeySwitchCountsTheSwitcher(t *testing.T) {
	n := float64(1 << 13)
	if got, want := deepShape.KeySwitch(Hybrid, 9, 4).Total(), (500+4*364)*n; got != want {
		t.Fatalf("hybrid h4 @9 = %g, want %g", got, want)
	}
	if got, want := deepShape.KeySwitch(KLSS, 9, 4).Total(), (585+4*454)*n; got != want {
		t.Fatalf("klss h4 @9 = %g, want %g", got, want)
	}
	if got, want := deepShape.KeySwitch(Hybrid, 9, 4).NTT, (65+325+4*156)*n; got != want {
		t.Fatalf("hybrid h4 @9 NTT = %g, want %g", got, want)
	}
}

// With the KLSS digit no wider than hybrid's and as many special primes,
// KLSS runs hybrid's rows with its special ones on a lane at least as wide:
// it can never be the cheaper method, at any level or hoist width.
func TestShapeKLSSNeverCheaperAtEqualDigits(t *testing.T) {
	for l := 0; l <= deepShape.L; l++ {
		for _, h := range []int{1, 2, 4, 8} {
			hy, kl := deepShape.KeySwitch(Hybrid, l, h).Total(), deepShape.KeySwitch(KLSS, l, h).Total()
			if kl <= hy {
				t.Fatalf("level %d hoist %d: klss %g <= hybrid %g", l, h, kl, hy)
			}
		}
	}
}

// A wider KLSS digit means fewer digits: fewer ModUp conversions and NTTs
// and a shorter gadget product, which outweighs the 60-bit special rows.
func TestShapeWideKLSSDigitIsCheaper(t *testing.T) {
	s := deepShape
	s.Alpha, s.AlphaT = 1, 4
	if hy, kl := s.KeySwitch(Hybrid, 11, 1).Total(), s.KeySwitch(KLSS, 11, 1).Total(); kl >= hy {
		t.Fatalf("α 1 vs α_T 4: klss %g >= hybrid %g", kl, hy)
	}
}

// Hoisting amortises ModUp: h rotations cost less than h single switches,
// and more than one.
func TestShapeHoistingAmortisesModUp(t *testing.T) {
	for _, m := range []Method{Hybrid, KLSS} {
		one, four := deepShape.KeySwitch(m, 9, 1).Total(), deepShape.KeySwitch(m, 9, 4).Total()
		if four >= 4*one || four <= one {
			t.Fatalf("%v: hoist 4 = %g, single = %g", m, four, one)
		}
	}
}

// A fused group runs one ModDown pair for all its rotations. At lib_deep's
// group the hand tally splits a hybrid rotation's 364 into 144 per rotation
// (KeyMult 120, automorph 24) and 220 per ModDown pair (INTTs 26, BConv 44,
// NTTs 130, subtractions 20): 500 + 4×144 + 220 = 1296, 0.663 of the
// unfused 1956. One pair per rotation is KeySwitch's count.
func TestShapeHoistedCountsOneModDownPerSum(t *testing.T) {
	n := float64(1 << 13)
	if got, want := deepShape.Hoisted(Hybrid, 9, 4, 1).Total(), (500+4*144+220)*n; got != want {
		t.Fatalf("fused hybrid h4 @9 = %g, want %g", got, want)
	}
	for _, m := range []Method{Hybrid, KLSS} {
		for h := 1; h <= 8; h++ {
			unfused := deepShape.KeySwitch(m, 9, h)
			if deepShape.Hoisted(m, 9, h, h) != unfused {
				t.Fatalf("%v h%d: Hoisted with a pair per rotation differs from KeySwitch", m, h)
			}
			if fused := deepShape.Hoisted(m, 9, h, 1).Total(); fused > unfused.Total() || (h > 1 && fused == unfused.Total()) {
				t.Fatalf("%v h%d: fused %g, unfused %g", m, h, fused, unfused.Total())
			}
		}
	}
}
