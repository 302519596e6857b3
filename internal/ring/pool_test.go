package ring

import (
	"sync"
	"testing"

	"github.com/fastfhe/fast/internal/obs"
)

func TestPolyPoolShapes(t *testing.T) {
	pp := NewPolyPool(16, 8)
	if pp.N() != 16 || pp.MaxLimbs() != 8 {
		t.Fatalf("pool shape accessors: %dx%d", pp.MaxLimbs(), pp.N())
	}
	for _, limbs := range []int{1, 3, 8} {
		p := pp.Get(limbs)
		if p.Limbs() != limbs || p.N() != 16 {
			t.Fatalf("Get(%d): got %dx%d", limbs, p.Limbs(), p.N())
		}
		pp.Put(p)
	}
}

func TestPolyPoolGetZero(t *testing.T) {
	pp := NewPolyPool(8, 4)
	// Dirty a buffer, return it, and check GetZero cleans it.
	p := pp.Get(4)
	for i := range p.Coeffs {
		for j := range p.Coeffs[i] {
			p.Coeffs[i][j] = 0xdead
		}
	}
	pp.Put(p)
	q := pp.GetZero(4)
	for i := range q.Coeffs {
		for j := range q.Coeffs[i] {
			if q.Coeffs[i][j] != 0 {
				t.Fatalf("GetZero returned dirty buffer at [%d][%d]", i, j)
			}
		}
	}
	pp.Put(q)
}

func TestPolyPoolRecoversTruncatedViews(t *testing.T) {
	pp := NewPolyPool(8, 6)
	// A truncated Get view must round-trip back to full capacity.
	p := pp.Get(2)
	pp.Put(p)
	q := pp.Get(6)
	if q.Limbs() != 6 {
		t.Fatalf("after Put of truncated view, Get(6) has %d limbs", q.Limbs())
	}
	pp.Put(q)
	// Foreign polynomials are dropped, not pooled.
	pp.Put(NewPoly(8, 3))
	pp.Put(Poly{})
}

// TestPolyPoolShare: pools made with Share recycle one reservoir — a buffer
// one hands back, another hands out — and count their own traffic; a pool
// with its own reservoir drops the others' buffers.
func TestPolyPoolShare(t *testing.T) {
	reg := obs.NewRegistry()
	a := NewPolyPool(8, 4)
	b := a.Share()
	b.Instrument(reg.Counter("b.gets"), reg.Counter("b.puts"), reg.Counter("b.misses"), nil)
	p := a.Get(4)
	a.Put(p)
	q := b.Get(2)
	b.Put(q)
	if got := reg.Counter("b.gets").Value(); got != 1 {
		t.Fatalf("shared pool counted %d gets, want 1", got)
	}
	if b.N() != 8 || b.MaxLimbs() != 4 {
		t.Fatalf("shared pool shape %dx%d, want 4x8", b.MaxLimbs(), b.N())
	}
	r := b.Get(4)
	a.Put(r) // recycled across pools sharing the reservoir
	if got := reg.Counter("b.puts").Value(); got != 1 {
		t.Fatalf("a Put through the other pool counted on this one: %d puts", got)
	}
	foreign := NewPolyPool(8, 4)
	s := foreign.Get(4)
	a.Put(s) // another reservoir's buffer: dropped
	foreign.Put(s)
}

func TestPolyPoolConcurrent(t *testing.T) {
	pp := NewPolyPool(32, 7)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				limbs := 1 + (g+i)%7
				p := pp.GetZero(limbs)
				for r := range p.Coeffs {
					p.Coeffs[r][0] = uint64(g)
				}
				pp.Put(p)
			}
		}(g)
	}
	wg.Wait()
}

func TestForEachLimbRangeCoversExactly(t *testing.T) {
	for _, limbs := range []int{1, 2, 3, 4, 7, 16, 33} {
		for _, workers := range []int{-1, 0, 1, 2, 3, 64} {
			var mu sync.Mutex
			seen := make([]int, limbs)
			calls := 0
			ForEachLimbRange(limbs, workers, func(lo, hi int) {
				mu.Lock()
				defer mu.Unlock()
				calls++
				if lo < 0 || hi > limbs || lo >= hi {
					t.Fatalf("limbs=%d workers=%d: bad range [%d,%d)", limbs, workers, lo, hi)
				}
				for i := lo; i < hi; i++ {
					seen[i]++
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("limbs=%d workers=%d: index %d covered %d times", limbs, workers, i, c)
				}
			}
			// Chunked contract: never more range calls than workers allow.
			if w := Workers(workers); calls > w && w >= 2 {
				t.Fatalf("limbs=%d workers=%d: %d chunks for %d workers", limbs, workers, calls, w)
			}
		}
	}
	// Degenerate inputs are no-ops.
	ForEachLimbRange(0, 4, func(lo, hi int) { t.Fatal("called for limbs=0") })
}

func TestWorkersConvention(t *testing.T) {
	if Workers(1) != 1 || Workers(5) != 5 {
		t.Fatal("positive worker counts must pass through")
	}
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Fatal("non-positive requests must resolve to at least one worker")
	}
}
