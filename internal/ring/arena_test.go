package ring

import (
	"testing"
	"unsafe"
)

// Tests for the arena invariant: every constructed Poly keeps Coeffs[i] as an
// exact alias of Backing[i*N:(i+1)*N], rows cannot spill into neighbors, and
// the pool recycles whole arenas by identity.

func backingPtr(p Poly) uintptr {
	if len(p.Backing) == 0 {
		return 0
	}
	return uintptr(unsafe.Pointer(&p.Backing[0]))
}

func TestPolyFromBackingAliasing(t *testing.T) {
	const n, limbs = 8, 3
	backing := make([]uint64, n*limbs+5) // extra tail must be trimmed off
	p := PolyFromBacking(n, limbs, backing)
	if len(p.Backing) != n*limbs || cap(p.Backing) != n*limbs {
		t.Fatalf("backing not trimmed: len=%d cap=%d, want %d", len(p.Backing), cap(p.Backing), n*limbs)
	}
	for i := 0; i < limbs; i++ {
		if &p.Coeffs[i][0] != &backing[i*n] {
			t.Fatalf("row %d does not alias backing[%d]", i, i*n)
		}
		if cap(p.Coeffs[i]) != n {
			t.Fatalf("row %d capacity %d not clamped to %d: appends could spill into row %d",
				i, cap(p.Coeffs[i]), n, i+1)
		}
	}
	// Writes through rows land in the backing and vice versa.
	p.Coeffs[1][2] = 42
	if p.Backing[n+2] != 42 {
		t.Fatal("row write did not reach the backing")
	}
	p.Backing[2*n] = 7
	if p.Coeffs[2][0] != 7 {
		t.Fatal("backing write did not reach the row view")
	}
}

func TestPolyFromBackingRejectsShortBacking(t *testing.T) {
	for _, tc := range []struct {
		name             string
		n, limbs, length int
	}{
		{"short", 8, 3, 23},
		{"zero n", 0, 3, 24},
		{"zero limbs", 8, 0, 24},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: PolyFromBacking(%d, %d) over %d words did not panic",
						tc.name, tc.n, tc.limbs, tc.length)
				}
			}()
			PolyFromBacking(tc.n, tc.limbs, make([]uint64, tc.length))
		}()
	}
}

func TestNewPolyIsArenaBacked(t *testing.T) {
	p := NewPoly(16, 4)
	if len(p.Backing) != 64 {
		t.Fatalf("NewPoly backing length %d, want 64", len(p.Backing))
	}
	for i := range p.Coeffs {
		if &p.Coeffs[i][0] != &p.Backing[i*16] {
			t.Fatalf("NewPoly row %d detached from backing", i)
		}
	}
}

// TestPolyPoolReusesArena pins the pool's reason to exist: returning a poly
// and fetching the same shape again must hand back the identical arena (no
// fresh allocation), including through a Truncated view — the shape the
// evaluator returns at lower levels.
func TestPolyPoolReusesArena(t *testing.T) {
	pool := NewPolyPool(16, 4)
	// recycle Puts view(p) and Gets the full shape back, reporting whether
	// the pool handed back the arena it was just given. Under the race
	// detector sync.Pool deliberately drops a random share of Puts, so a
	// single Put/Get pair proves nothing there: a few tries are allowed.
	recycle := func(p Poly, view func(Poly) Poly) (Poly, bool) {
		for try := 0; try < 64; try++ {
			ptr := backingPtr(p)
			pool.Put(view(p))
			if p = pool.Get(4); backingPtr(p) == ptr {
				return p, true
			}
		}
		return p, false
	}
	p := pool.Get(4)
	if backingPtr(p) == 0 {
		t.Fatal("pooled poly has no backing")
	}
	q, ok := recycle(p, func(p Poly) Poly { return p })
	if !ok {
		t.Fatal("pool did not recycle the arena for a same-shape Get")
	}
	// A truncated view keeps the arena linkage, so Put recovers the full
	// arena and the next full-shape Get reuses it.
	if tr := q.Truncated(2); backingPtr(tr) != backingPtr(q) {
		t.Fatal("Truncated view lost the arena prefix")
	}
	r, ok := recycle(q, func(p Poly) Poly { return p.Truncated(2) })
	if !ok {
		t.Fatal("pool did not recover the arena from a truncated view")
	}
	if r.Limbs() != 4 || r.N() != 16 {
		t.Fatalf("recovered poly has shape %dx%d, want 4x16", r.Limbs(), r.N())
	}
}
