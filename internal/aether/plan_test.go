package aether

import (
	"testing"

	"github.com/fastfhe/fast/internal/costmodel"
)

// deep is lib_deep's context shape (fast.NewContext at log_n 13, 11 levels,
// KLSS on): both methods group digits of two, hybrid over two 50-bit P
// primes, KLSS over two 60-bit T primes.
var deep = costmodel.Shape{LogN: 13, L: 11, Alpha: 2, AlphaT: 2, P: 2, T: 2, QLane: 1, PLane: 1, TLane: 2}

// wide is a synthetic shape whose KLSS digit is twice hybrid's over as many
// special primes: half the digits, so KLSS is the cheaper method at the top
// of the chain and hybrid near its bottom.
var wide = costmodel.Shape{LogN: 13, L: 11, Alpha: 1, AlphaT: 2, P: 2, T: 2, QLane: 1, PLane: 1, TLane: 2}

func TestPlanSitesPinsHybridWithoutKLSS(t *testing.T) {
	out := PlanSites(wide, []Site{{Op: 7, Level: wide.L, Hoist: 1, KLSS: false}})
	if len(out) != 1 || out[0].OpIndex != 7 || out[0].Method != costmodel.Hybrid {
		t.Fatalf("got %+v, want hybrid at op 7", out)
	}
}

func TestPlanSitesPicksCheaperMethod(t *testing.T) {
	for _, s := range []costmodel.Shape{deep, wide} {
		for _, site := range []Site{
			{Op: 0, Level: s.L, Hoist: 1, KLSS: true},
			{Op: 1, Level: 1, Hoist: 1, KLSS: true},
			{Op: 2, Level: s.L, Hoist: 8, KLSS: true},
			{Op: 3, Level: 9, Hoist: 4, KLSS: true},
		} {
			d := PlanSites(s, []Site{site})[0]
			hy := s.KeySwitch(costmodel.Hybrid, site.Level, site.Hoist).Total()
			kl := s.KeySwitch(costmodel.KLSS, site.Level, site.Hoist).Total()
			wantKLSS := kl < hy*0.95
			if (d.Method == costmodel.KLSS) != wantKLSS {
				t.Fatalf("shape %+v site %+v: got %v (hy=%g kl=%g)", s, site, d.Method, hy, kl)
			}
			if d.Hoist != site.Hoist || d.Level != site.Level {
				t.Fatalf("site %+v: echo mismatch %+v", site, d)
			}
		}
	}
}

// The selection is not hard-wired to hybrid: where the shape makes KLSS
// cheaper, the planner picks it — and where it does not, hybrid.
func TestPlanSitesPicksKLSSWhereItIsCheaper(t *testing.T) {
	out := PlanSites(wide, []Site{
		{Op: 0, Level: 11, Hoist: 1, KLSS: true},
		{Op: 1, Level: 11, Hoist: 4, KLSS: true},
		{Op: 2, Level: 1, Hoist: 1, KLSS: true},
	})
	if out[0].Method != costmodel.KLSS || out[1].Method != costmodel.KLSS || out[2].Method != costmodel.Hybrid {
		t.Fatalf("wide digits: got %v %v %v, want klss klss hybrid", out[0].Method, out[1].Method, out[2].Method)
	}
}

// At lib_deep's shape KLSS is hybrid over wider special primes, so the
// planner never picks it; a pin still gets it, priced as KLSS.
func TestPlanSitesKeepsEqualDigitsOnHybrid(t *testing.T) {
	var sites []Site
	for l := 0; l <= deep.L; l++ {
		for _, h := range []int{1, 4} {
			sites = append(sites, Site{Op: len(sites), Level: l, Hoist: h, KLSS: true})
		}
	}
	for _, d := range PlanSites(deep, sites) {
		if d.Method != costmodel.Hybrid {
			t.Fatalf("level %d hoist %d: got %v, want hybrid", d.Level, d.Hoist, d.Method)
		}
	}
	pin := PlanSites(deep, []Site{{Level: 9, Hoist: 4, KLSS: true, Pinned: true, Method: costmodel.KLSS}})[0]
	if pin.Method != costmodel.KLSS || pin.Units != deep.KeySwitch(costmodel.KLSS, 9, 4).Total() {
		t.Fatalf("pinned klss: got %+v", pin)
	}
}

func TestPlanSitesDeterministic(t *testing.T) {
	sites := []Site{
		{Op: 0, Level: wide.L, Hoist: 1, KLSS: true},
		{Op: 1, Level: wide.L / 2, Hoist: 3, KLSS: true},
		{Op: 2, Level: 0, Hoist: 1, KLSS: false},
	}
	a := PlanSites(wide, sites)
	b := PlanSites(wide, sites)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic verdict at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestPlanSitesClampsInputs(t *testing.T) {
	out := PlanSites(deep, []Site{
		{Op: 0, Level: -3, Hoist: 0, KLSS: true},
		{Op: 1, Level: 99, Hoist: 0, Pinned: true, Method: costmodel.Hybrid},
	})
	if out[0].Level != 0 || out[0].Hoist != 1 {
		t.Fatalf("clamping: got %+v", out[0])
	}
	if out[1].Level != deep.L || out[1].Hoist != 1 ||
		out[1].Units != deep.KeySwitch(costmodel.Hybrid, deep.L, 1).Total() {
		t.Fatalf("clamping a pinned site: got %+v", out[1])
	}
}

// Every verdict carries the units of the method it chose, pinned sites
// included, and a hoisted group costs less than its rotations one by one.
func TestPlanSitesUnitsPriceTheChosenMethod(t *testing.T) {
	sites := []Site{
		{Op: 0, Level: 11, Hoist: 1, KLSS: true},
		{Op: 1, Level: 9, Hoist: 4, KLSS: true},
		{Op: 2, Level: 4, Hoist: 2, Pinned: true, Method: costmodel.KLSS},
		{Op: 3, Level: 4, Hoist: 2, KLSS: true, Pinned: true, Method: costmodel.Hybrid},
		{Op: 4, Level: 9, Hoist: 4, KLSS: false},
	}
	for _, s := range []costmodel.Shape{deep, wide} {
		out := PlanSites(s, sites)
		for i, d := range out {
			if want := s.KeySwitch(d.Method, d.Level, d.Hoist).Total(); d.Units != want || d.Units <= 0 {
				t.Fatalf("site %d (%v): units %g, want %g", i, d.Method, d.Units, want)
			}
		}
		if out[2].Method != costmodel.KLSS || out[3].Method != costmodel.Hybrid {
			t.Fatalf("pins not honoured: %+v, %+v", out[2], out[3])
		}
		if solo := s.KeySwitch(costmodel.Hybrid, 9, 1).Total(); out[4].Units >= 4*solo {
			t.Fatalf("hoist-4 group (%g) not cheaper than 4 solo switches (%g)", out[4].Units, 4*solo)
		}
	}
}

// Ties within 5% go to hybrid: at the wide shape's level 5, hoist 5, KLSS
// counts 1.3% fewer operations and still loses.
func TestPlanSitesTiesGoToHybrid(t *testing.T) {
	hy := wide.KeySwitch(costmodel.Hybrid, 5, 5).Total()
	kl := wide.KeySwitch(costmodel.KLSS, 5, 5).Total()
	if r := kl / hy; r < 0.95 || r >= 1 {
		t.Fatalf("KLSS/hybrid = %.4f, no longer a tie KLSS narrowly wins", r)
	}
	if d := PlanSites(wide, []Site{{Level: 5, Hoist: 5, KLSS: true}})[0]; d.Method != costmodel.Hybrid {
		t.Fatalf("tie went to %v, want hybrid", d.Method)
	}
}

// A fused site is priced with one ModDown pair per sum, under either method,
// and its verdict compares the methods at that count.
func TestPlanSitesPricesFusedSites(t *testing.T) {
	for _, s := range []costmodel.Shape{deep, wide} {
		for _, st := range []Site{
			{Op: 0, Level: 9, Hoist: 4, ModDowns: 1, KLSS: true},
			{Op: 1, Level: 11, Hoist: 3, ModDowns: 2, KLSS: true},
			{Op: 2, Level: 9, Hoist: 4, ModDowns: 1, KLSS: true, Pinned: true, Method: costmodel.KLSS},
		} {
			d := PlanSites(s, []Site{st})[0]
			if want := s.Hoisted(d.Method, st.Level, st.Hoist, st.ModDowns).Total(); d.Units != want {
				t.Fatalf("shape %+v site %+v: units %g, want %g", s, st, d.Units, want)
			}
			hy := s.Hoisted(costmodel.Hybrid, st.Level, st.Hoist, st.ModDowns).Total()
			kl := s.Hoisted(costmodel.KLSS, st.Level, st.Hoist, st.ModDowns).Total()
			if !st.Pinned && (d.Method == costmodel.KLSS) != (kl < hy*0.95) {
				t.Fatalf("shape %+v site %+v: got %v (hy=%g kl=%g)", s, st, d.Method, hy, kl)
			}
			unfused := st
			unfused.ModDowns = 0
			if d.Units >= PlanSites(s, []Site{unfused})[0].Units {
				t.Fatalf("shape %+v site %+v: fused is not cheaper", s, st)
			}
		}
	}
}
