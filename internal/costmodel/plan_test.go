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

func TestPassUnits(t *testing.T) {
	p := ForContext(11, 5)
	if got, want := p.PassUnits(), float64(1<<11)*6; got != want {
		t.Fatalf("PassUnits = %g, want %g", got, want)
	}
}
