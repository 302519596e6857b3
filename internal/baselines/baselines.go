// Package baselines carries the prior-accelerator data FAST is evaluated
// against (paper Tables 4-6): the published hardware descriptions and
// benchmark latencies of BTS, CraterLake, ARK, F1 and the SHARP family, plus
// simulatable configurations of the SHARP-class machines and the Fig. 12
// ablation points so relative claims can be regenerated through the same
// cycle model rather than copied.
package baselines

import (
	"fmt"
	"strings"

	"github.com/fastfhe/fast/internal/arch"
)

// Published is one row of the hardware/performance comparison tables. Exec
// latencies are milliseconds; a zero entry means the paper reports none.
type Published struct {
	Name        string
	OffChipTBps float64
	BitWidth    int
	Lanes       int
	OnChipMB    float64
	AreaMM2     float64

	// Table 5 latencies (ms).
	Bootstrap, HELR256, HELR1024, ResNet20 float64

	// Table 6 amortised mult time per slot.
	Slots   int
	TmultNS float64
}

// All returns the published rows in Table 4/5 order, FAST last.
func All() []Published {
	return []Published{
		{Name: "BTS", OffChipTBps: 1, BitWidth: 64, Lanes: 2048, OnChipMB: 512, AreaMM2: 373.6,
			Bootstrap: 22.88, HELR1024: 28.4, ResNet20: 1910, Slots: 1 << 15, TmultNS: 45.7},
		{Name: "CLake", OffChipTBps: 1, BitWidth: 28, Lanes: 2048, OnChipMB: 282, AreaMM2: 222.7,
			Bootstrap: 6.32, HELR256: 3.81, ResNet20: 321, Slots: 1 << 15, TmultNS: 17.6},
		{Name: "ARK", OffChipTBps: 1, BitWidth: 64, Lanes: 1024, OnChipMB: 588, AreaMM2: 418.3,
			Bootstrap: 3.52, HELR1024: 7.42, ResNet20: 125, Slots: 1 << 15, TmultNS: 14.3},
		{Name: "SHARP", OffChipTBps: 1, BitWidth: 36, Lanes: 1024, OnChipMB: 198, AreaMM2: 178.8,
			Bootstrap: 3.12, HELR256: 1.82, HELR1024: 2.53, ResNet20: 99, Slots: 1 << 15, TmultNS: 12.8},
		{Name: "SHARP_LM", OffChipTBps: 1, BitWidth: 36, Lanes: 1024, OnChipMB: 281, AreaMM2: 215,
			Bootstrap: 2.94, HELR256: 1.72, HELR1024: 2.44, ResNet20: 93.88},
		{Name: "SHARP_8C", OffChipTBps: 1, BitWidth: 36, Lanes: 2048, OnChipMB: 198, AreaMM2: 250,
			Bootstrap: 2.16, HELR256: 1.33, HELR1024: 1.89, ResNet20: 72.34},
		{Name: "SHARP_LM+8C", OffChipTBps: 1, BitWidth: 36, Lanes: 2048, OnChipMB: 281, AreaMM2: 290,
			Bootstrap: 2.03, HELR256: 1.26, HELR1024: 1.83, ResNet20: 68.59},
		{Name: "FAST", OffChipTBps: 1, BitWidth: 60, Lanes: 1024, OnChipMB: 281, AreaMM2: 283.75,
			Bootstrap: 1.38, HELR256: 1.12, HELR1024: 1.33, ResNet20: 60.49, Slots: 1 << 15, TmultNS: 5.4},
	}
}

// Table6Extra returns the rows that appear only in the T_mult,a/s study.
func Table6Extra() []Published {
	return []Published{
		{Name: "F1", BitWidth: 32, Slots: 1, TmultNS: 470},
		{Name: "SHARP_60", BitWidth: 60, Slots: 1 << 15, TmultNS: 11.7},
	}
}

// SHARP returns a simulatable SHARP-class configuration: fixed 36-bit
// datapath, hybrid-only key-switching, no hoisting, 198 MB SRAM.
func SHARP() arch.Config {
	c := arch.FAST()
	c.Name = "SHARP"
	c.ALU = arch.ALU36
	c.OnChipMB = 198
	c.ReservedEvkMB = 140
	c.EnableKLSS = false
	c.EnableHoisting = false
	return c
}

// SHARPLM is SHARP with the large (281 MB) memory and direct hoisting.
func SHARPLM() arch.Config {
	c := SHARP()
	c.Name = "SHARP_LM"
	c.OnChipMB = 281
	c.ReservedEvkMB = 200
	c.EnableHoisting = true
	return c
}

// SHARP8C is the 8-cluster SHARP configuration.
func SHARP8C() arch.Config {
	c := SHARP()
	c.Name = "SHARP_8C"
	c.Clusters = 8
	return c
}

// SHARPLM8C combines the large memory and 8 clusters.
func SHARPLM8C() arch.Config {
	c := SHARPLM()
	c.Name = "SHARP_LM+8C"
	c.Clusters = 8
	return c
}

// FASTNoTBM is the Fig. 12 ablation point: Aether-Hemera dual-method
// selection retained but the datapath is a fixed 60-bit design (so 36-bit
// hybrid kernels waste half of every multiplier).
func FASTNoTBM() arch.Config {
	c := arch.FAST()
	c.Name = "FAST-noTBM"
	c.ALU = arch.ALU60
	return c
}

// FAST36 is the bottom of the Fig. 12 ladder: a 36-bit ALU accelerator with
// neither TBM nor the Aether-Hemera framework (hybrid-only, no hoisting),
// i.e. the same machine class as SHARP but with FAST's memory.
func FAST36() arch.Config {
	c := arch.FAST()
	c.Name = "FAST-36bitALU"
	c.ALU = arch.ALU36
	c.EnableKLSS = false
	c.EnableHoisting = false
	return c
}

// named lists every simulatable configuration under its command-line name.
var named = []struct {
	name string
	cfg  func() arch.Config
}{
	{"fast", arch.FAST}, {"sharp", SHARP}, {"sharp-lm", SHARPLM}, {"sharp-8c", SHARP8C},
	{"sharp-lm8c", SHARPLM8C}, {"fast-notbm", FASTNoTBM}, {"fast-36", FAST36},
}

// ByName returns the configuration a command line names (one of Names).
func ByName(name string) (arch.Config, error) {
	for _, n := range named {
		if n.name == name {
			return n.cfg(), nil
		}
	}
	return arch.Config{}, fmt.Errorf("unknown config %q", name)
}

// Names returns the names ByName accepts, comma-separated for a usage line.
func Names() string {
	names := make([]string, len(named))
	for i, n := range named {
		names[i] = n.name
	}
	return strings.Join(names, ", ")
}
