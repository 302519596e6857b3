package aether

import (
	"testing"

	"github.com/fastfhe/fast/internal/costmodel"
)

func TestPlanSitesPinsHybridWithoutKLSS(t *testing.T) {
	p := costmodel.SetI()
	out := PlanSites(p, []Site{{Op: 7, Level: p.L, Hoist: 1, KLSS: false}})
	if len(out) != 1 || out[0].OpIndex != 7 || out[0].Method != costmodel.Hybrid {
		t.Fatalf("got %+v, want hybrid at op 7", out)
	}
}

func TestPlanSitesPicksCheaperMethod(t *testing.T) {
	p := costmodel.SetI()
	for _, s := range []Site{
		{Op: 0, Level: p.L, Hoist: 1, KLSS: true},
		{Op: 1, Level: 1, Hoist: 1, KLSS: true},
		{Op: 2, Level: p.L, Hoist: 8, KLSS: true},
	} {
		d := PlanSites(p, []Site{s})[0]
		hy := p.KeySwitch(costmodel.Hybrid, s.Level, s.Hoist).Total()
		kl := p.KeySwitch(costmodel.KLSS, s.Level, s.Hoist).Total()
		wantKLSS := kl < hy*0.95
		if (d.Method == costmodel.KLSS) != wantKLSS {
			t.Fatalf("site %+v: got %v (hy=%g kl=%g)", s, d.Method, hy, kl)
		}
		if d.Hoist != s.Hoist || d.Level != s.Level {
			t.Fatalf("site %+v: echo mismatch %+v", s, d)
		}
	}
}

func TestPlanSitesDeterministic(t *testing.T) {
	p := costmodel.SetI()
	sites := []Site{
		{Op: 0, Level: p.L, Hoist: 1, KLSS: true},
		{Op: 1, Level: p.L / 2, Hoist: 3, KLSS: true},
		{Op: 2, Level: 0, Hoist: 1, KLSS: false},
	}
	a := PlanSites(p, sites)
	b := PlanSites(p, sites)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic verdict at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestPlanSitesClampsInputs(t *testing.T) {
	p := costmodel.ForContext(11, 5)
	out := PlanSites(p, []Site{
		{Op: 0, Level: -3, Hoist: 0, KLSS: true},
		{Op: 1, Level: 99, Hoist: 0, Pinned: true, Method: costmodel.Hybrid},
	})
	if out[0].Level != 0 || out[0].Hoist != 1 {
		t.Fatalf("clamping: got %+v", out[0])
	}
	if out[1].Level != p.L || out[1].Hoist != 1 ||
		out[1].Units != p.KeySwitch(costmodel.Hybrid, p.L, 1).Total() {
		t.Fatalf("clamping a pinned site: got %+v", out[1])
	}
}

// Every verdict carries the units of the method it chose, pinned sites
// included, and a hoisted group costs less than its rotations one by one.
func TestPlanSitesUnitsPriceTheChosenMethod(t *testing.T) {
	p := costmodel.ForContext(13, 11)
	sites := []Site{
		{Op: 0, Level: 11, Hoist: 1, KLSS: true},
		{Op: 1, Level: 9, Hoist: 4, KLSS: true},
		{Op: 2, Level: 4, Hoist: 2, Pinned: true, Method: costmodel.KLSS},
		{Op: 3, Level: 4, Hoist: 2, KLSS: true, Pinned: true, Method: costmodel.Hybrid},
		{Op: 4, Level: 9, Hoist: 4, KLSS: false},
	}
	out := PlanSites(p, sites)
	for i, d := range out {
		if want := p.KeySwitch(d.Method, d.Level, d.Hoist).Total(); d.Units != want || d.Units <= 0 {
			t.Fatalf("site %d (%v): units %g, want %g", i, d.Method, d.Units, want)
		}
	}
	if out[2].Method != costmodel.KLSS || out[3].Method != costmodel.Hybrid {
		t.Fatalf("pins not honoured: %+v, %+v", out[2], out[3])
	}
	if out[1].Method != costmodel.KLSS || out[4].Method != costmodel.Hybrid {
		t.Fatalf("hoist-4 group at level 9: got %v with the KLSS chain, %v without; want klss, hybrid",
			out[1].Method, out[4].Method)
	}
	if solo := p.KeySwitch(costmodel.Hybrid, 9, 1).Total(); out[4].Units >= 4*solo {
		t.Fatalf("hoist-4 group (%g) not cheaper than 4 solo switches (%g)", out[4].Units, 4*solo)
	}
}

// Ties within 5% go to hybrid even where KLSS keys are the smaller ones: the
// online rule is not the offline minimal-key tie-break. At logN 11, level 1,
// hoist 8 KLSS costs 0.2% more modular operations and its keys are 215 040
// bytes against hybrid's 258 048, so the offline rule would pick KLSS.
func TestPlanSitesTiesGoToHybridNotSmallerKeys(t *testing.T) {
	p := costmodel.ForContext(11, 1)
	hy := p.KeySwitch(costmodel.Hybrid, 1, 8).Total()
	kl := p.KeySwitch(costmodel.KLSS, 1, 8).Total()
	if r := kl / hy; r < 0.95 || r > 1.05 {
		t.Fatalf("KLSS/hybrid = %.4f, no longer a tie", r)
	}
	if hk, kk := p.EvkBytes(costmodel.Hybrid, 1), p.EvkBytes(costmodel.KLSS, 1); kk != 215040 || hk != 258048 {
		t.Fatalf("key bytes: hybrid %d, klss %d", hk, kk)
	}
	if d := PlanSites(p, []Site{{Level: 1, Hoist: 8, KLSS: true}})[0]; d.Method != costmodel.Hybrid {
		t.Fatalf("tie went to %v, want hybrid", d.Method)
	}
}
