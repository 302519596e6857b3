package baselines

import (
	"testing"

	"github.com/fastfhe/fast/internal/arch"
)

func TestAllRowsComplete(t *testing.T) {
	rows := All()
	if len(rows) != 8 {
		t.Fatalf("got %d rows, want 8 (Table 4/5)", len(rows))
	}
	names := map[string]bool{}
	for _, r := range rows {
		if r.Name == "" || r.BitWidth == 0 || r.AreaMM2 == 0 {
			t.Errorf("incomplete row %+v", r)
		}
		if names[r.Name] {
			t.Errorf("duplicate row %q", r.Name)
		}
		names[r.Name] = true
	}
	for _, want := range []string{"BTS", "CLake", "ARK", "SHARP", "FAST"} {
		if !names[want] {
			t.Errorf("missing baseline %q", want)
		}
	}
}

func TestPublishedTable5Anchors(t *testing.T) {
	var sharp, fastRow Published
	for _, r := range All() {
		switch r.Name {
		case "SHARP":
			sharp = r
		case "FAST":
			fastRow = r
		}
	}
	if sharp.Bootstrap != 3.12 || fastRow.Bootstrap != 1.38 {
		t.Errorf("bootstrap anchors wrong: %v / %v", sharp.Bootstrap, fastRow.Bootstrap)
	}
	// The headline claim: average 1.85x over SHARP across the four rows.
	ratios := []float64{
		sharp.Bootstrap / fastRow.Bootstrap,
		sharp.HELR256 / fastRow.HELR256,
		sharp.HELR1024 / fastRow.HELR1024,
		sharp.ResNet20 / fastRow.ResNet20,
	}
	sum := 0.0
	for _, r := range ratios {
		sum += r
	}
	if avg := sum / 4; avg < 1.8 || avg > 1.95 {
		t.Errorf("published average speedup %.2f, expected ~1.85", avg)
	}
}

func TestTable6Extra(t *testing.T) {
	extra := Table6Extra()
	if len(extra) != 2 {
		t.Fatalf("want F1 and SHARP_60, got %d rows", len(extra))
	}
	if extra[0].Name != "F1" || extra[0].TmultNS != 470 {
		t.Errorf("F1 row wrong: %+v", extra[0])
	}
}

func TestSimulatableConfigsValid(t *testing.T) {
	for _, cfg := range []arch.Config{SHARP(), SHARPLM(), SHARP8C(), SHARPLM8C(), FASTNoTBM(), FAST36()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestConfigFeatureMatrix(t *testing.T) {
	if s := SHARP(); s.EnableKLSS || s.EnableHoisting || s.ALU != arch.ALU36 {
		t.Error("SHARP must be a plain 36-bit hybrid machine")
	}
	if lm := SHARPLM(); !lm.EnableHoisting || lm.OnChipMB != 281 {
		t.Error("SHARP_LM must add memory and hoisting")
	}
	if c8 := SHARP8C(); c8.Clusters != 8 {
		t.Error("SHARP_8C must have 8 clusters")
	}
	if nt := FASTNoTBM(); nt.ALU != arch.ALU60 || !nt.EnableKLSS {
		t.Error("FAST-noTBM keeps Aether but drops the TBM")
	}
	if f36 := FAST36(); f36.ALU != arch.ALU36 || f36.EnableKLSS {
		t.Error("FAST36 must disable both TBM and Aether features")
	}
}

// Every command-line name resolves to its configuration, in the order the
// usage line lists them; anything else is an error naming the input.
func TestByName(t *testing.T) {
	want := map[string]string{
		"fast": "FAST", "sharp": "SHARP", "sharp-lm": "SHARP_LM", "sharp-8c": "SHARP_8C",
		"sharp-lm8c": "SHARP_LM+8C", "fast-notbm": "FAST-noTBM", "fast-36": "FAST-36bitALU",
	}
	if got := Names(); got != "fast, sharp, sharp-lm, sharp-8c, sharp-lm8c, fast-notbm, fast-36" {
		t.Errorf("Names() = %q", got)
	}
	for name, cfgName := range want {
		if c, err := ByName(name); err != nil || c.Name != cfgName {
			t.Errorf("ByName(%q) = %q, %v; want %q", name, c.Name, err, cfgName)
		}
	}
	if _, err := ByName("sharp_lm"); err == nil || err.Error() != `unknown config "sharp_lm"` {
		t.Errorf("ByName(sharp_lm) error = %v", err)
	}
}
