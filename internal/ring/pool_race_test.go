//go:build race

package ring

import (
	"strings"
	"testing"
)

// TestPoolChecksCatchMisuse plants the two bugs the race pass polices — an
// op that reads a pooled output row before writing it, and a buffer recycled
// twice — and shows that both are caught.
func TestPoolChecksCatchMisuse(t *testing.T) {
	const n = 16
	m := FirstPrime(t, 36, 4)
	pp := NewPolyPool(n, 3)

	// The previous owner leaves valid residues behind: without the poison a
	// stale row would pass for a result.
	prev := pp.Get(3)
	for i := range prev.Backing {
		prev.Backing[i] = 1
	}
	pp.Put(prev)

	// Read-before-write: an "op" that fills rows 0 and 1 of its pooled output
	// and forgets row 2, then a consumer adds it to something valid.
	out := pp.Get(3)
	for _, row := range out.Coeffs[:2] {
		clear(row)
	}
	r := &Ring{N: n, Moduli: []Modulus{m, m, m}}
	sum := NewPoly(n, 3)
	r.Add(out, NewPoly(n, 3), sum)
	if !outOfRange(sum, m.Q) {
		t.Fatal("a row read before it was written passed for residues")
	}
	pp.Put(out)

	// Double Put: the second hand-back of one buffer panics.
	p := pp.Get(2)
	pp.Put(p)
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "already in the pool") {
			t.Fatalf("second Put of one buffer: recovered %v, want the double-recycle panic", r)
		}
	}()
	pp.Put(p)
}

func outOfRange(p Poly, q uint64) bool {
	for _, v := range p.Backing {
		if v >= q {
			return true
		}
	}
	return false
}
