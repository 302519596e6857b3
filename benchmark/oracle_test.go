package main

import (
	"math"
	"testing"

	fast "github.com/fastfhe/fast"
)

func TestOracleOnKnownVector(t *testing.T) {
	x := []complex128{1, 2, 3, 4}
	prog := fast.NewProgram().In("x").
		Rotate("r", "x", 1).     // [2 3 4 1]
		Mul("m", "r", "x").      // [2 6 12 4]
		AddConst("c", "m", 0.5). // [2.5 6.5 12.5 4.5]
		Rotate("l", "c", -1).    // [4.5 2.5 6.5 12.5]
		Sub("s", "l", "x").      // [3.5 0.5 3.5 8.5]
		MulConst("k", "s", 2).   // [7 1 7 17]
		Conjugate("out", "k").
		Return("out")
	got, err := evalPlain(prog, map[string][]complex128{"x": x})
	if err != nil {
		t.Fatal(err)
	}
	want := []complex128{7, 1, 7, 17}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d: got %v, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
	if x[0] != 1 || x[3] != 4 {
		t.Error("the oracle modified its input")
	}
}

func TestOracleConjugateAndPlain(t *testing.T) {
	x := []complex128{complex(1, 2), complex(0, -1)}
	prog := fast.NewProgram().In("x").
		Conjugate("c", "x").
		MulPlain("p", "c", []complex128{2}). // second slot padded with 0
		AddPlain("out", "p", []complex128{complex(0, 1), 3}).
		Return("out")
	got, err := evalPlain(prog, map[string][]complex128{"x": x})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != complex(2, -3) || got[1] != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestOracleRejectsUndefinedRegister(t *testing.T) {
	prog := fast.NewProgram().In("x").Add("out", "x", "y").Return("out")
	if _, err := evalPlain(prog, map[string][]complex128{"x": {1}}); err == nil {
		t.Fatal("want an error for an undefined register")
	}
}

// The benchmark's two programs must be accepted by the library's own
// validator and be evaluable by the oracle at the smallest slot count used.
func TestBenchmarkProgramsValidate(t *testing.T) {
	for name, prog := range map[string]*fast.Program{"fanout": fanoutProgram(), "deep": deepProgram()} {
		if err := prog.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		x := make([]complex128, 256)
		for i := range x {
			x[i] = complex(float64(i%5)/10, 0)
		}
		if _, err := evalPlain(prog, map[string][]complex128{"x": x}); err != nil {
			t.Errorf("%s: oracle: %v", name, err)
		}
	}
}

func TestPrecisionBits(t *testing.T) {
	want := []complex128{1, 2}
	if rms, worst := precisionBits([]complex128{1, 2}, want); rms != 64 || worst != 64 {
		t.Errorf("exact agreement = %v/%v bits, want the 64-bit cap", rms, worst)
	}
	// One slot off by 2^-10, one exact: worst 10 bits, rms error 2^-10/sqrt(2).
	rms, worst := precisionBits([]complex128{1 + 1.0/1024, 2}, want)
	if math.Abs(worst-10) > 1e-9 || math.Abs(rms-10.5) > 1e-9 {
		t.Errorf("got rms %v worst %v bits, want 10.5 and 10", rms, worst)
	}
	if rms, worst := precisionBits([]complex128{1}, want); rms != 0 || worst != 0 {
		t.Error("length mismatch must give 0 bits")
	}
}
