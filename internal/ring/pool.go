package ring

import (
	"fmt"
	"sync"

	"github.com/fastfhe/fast/internal/obs"
)

// PolyPool is a sync.Pool-backed reservoir of scratch polynomials of a fixed
// maximal shape (degree n, up to maxLimbs RNS rows). The evaluator hot paths
// (tensoring, key-switch ModUp/KeyMult accumulators, rescale staging) draw
// their temporaries from a pool sized off the parameter set instead of
// allocating fresh polynomials per operation — the Lattigo buffer-reuse idiom,
// made safe for many concurrent goroutines by sync.Pool.
//
// Get hands out a view truncated to the requested limb count; Put recovers the
// full arena through the Poly's arena pointer, so a truncated view can be
// returned directly. Polynomials not allocated by a pool of the same shape are
// silently dropped by Put (never corrupted, never double-pooled).
//
// Pools made with Share draw from and return to one set of buffers, each
// counting its own traffic: the contexts of one parameter shape keep one
// reservoir, so a new context's first operations find it warm.
//
// Under the race detector (pool_race.go) the pool also polices its contract:
// Get fills the rows it hands out with poolPoison, a word above every
// modulus, and Put of an arena that is already pooled panics. `make race`
// runs the golden and oracle tests that way, so an op that reads a pooled
// row before writing it, or two owners recycling one buffer, fails there.
type PolyPool struct {
	arenas *arenaPool

	// Optional instruments (see Instrument). Nil instruments are no-ops, so
	// the uninstrumented hot-path cost is a nil check per Get.
	gets       *obs.Counter
	puts       *obs.Counter
	misses     *obs.Counter
	allocBytes *obs.Gauge
}

// arenaPool is the buffer reservoir behind one or more PolyPools.
type arenaPool struct {
	n, maxLimbs int
	pool        sync.Pool
}

// poolArena is one recyclable (n, maxLimbs)-class allocation: a contiguous
// coefficient backing plus its row view, built once by PolyFromBacking and
// re-sliced (never re-built) on every Get. Pooling the pointer — and threading
// it back through Poly.arena — keeps both Get and Put allocation-free, which
// the ckks alloc guards (TestKeySwitchAllocs) depend on.
type poolArena struct {
	owner   *arenaPool
	coeffs  [][]uint64
	backing []uint64
	pooled  bool // sitting in the pool; maintained only when contractChecks
}

// poolPoison fills every row Get hands out under contractChecks: above 2^61, so
// above every modulus, and so no residue any kernel can produce.
const poolPoison = 0xA5A5A5A5A5A5A5A5

// NewPolyPool creates a pool of polynomials with the given degree and maximal
// limb count.
func NewPolyPool(n, maxLimbs int) *PolyPool {
	// INVARIANT: pool shapes are fixed at construction from a validated parameter set.
	// A panic here is a repo-internal bug, never a reaction to caller input —
	// malformed inputs are rejected with typed errors at the public boundary.
	if n < 1 || maxLimbs < 1 {
		panic(fmt.Sprintf("ring: invalid pool shape %dx%d", maxLimbs, n))
	}
	return &PolyPool{arenas: &arenaPool{n: n, maxLimbs: maxLimbs}}
}

// Share returns an uninstrumented pool over pp's buffers: what either hands
// out, either may take back.
func (pp *PolyPool) Share() *PolyPool {
	return &PolyPool{arenas: pp.arenas}
}

// Instrument attaches observability instruments to the pool:
//
//	gets    counts every Get/GetZero (a pool hit is gets - misses);
//	puts    counts every Put of a pool-shaped buffer — on a quiescent pool
//	        gets == puts; a persistent gap is a scratch leak (some error or
//	        cancellation path failed to release), the invariant the
//	        cancellation tests assert;
//	misses  counts Gets that had to allocate a fresh backing buffer;
//	alloc   accumulates the bytes of those fresh backings — the pool's
//	        steady-state footprint once the workload's concurrency peak has
//	        been seen (sync.Pool may later release buffers to the GC; the
//	        gauge tracks cumulative allocation, the interesting signal for
//	        sizing).
//
// Any (or all) instruments may be nil. Call before the pool is shared across
// goroutines (construction time).
func (pp *PolyPool) Instrument(gets, puts, misses *obs.Counter, alloc *obs.Gauge) {
	pp.gets, pp.puts, pp.misses, pp.allocBytes = gets, puts, misses, alloc
}

// N returns the polynomial degree of pooled buffers.
func (pp *PolyPool) N() int { return pp.arenas.n }

// MaxLimbs returns the maximal limb count of pooled buffers.
func (pp *PolyPool) MaxLimbs() int { return pp.arenas.maxLimbs }

// Get returns a polynomial with exactly `limbs` rows. The contents are
// unspecified (callers that accumulate must use GetZero or overwrite every
// coefficient). The returned Poly must be handed back with Put once dead.
func (pp *PolyPool) Get(limbs int) Poly {
	// INVARIANT: limb counts come from ciphertext levels already range-checked upstream.
	// A panic here is a repo-internal bug, never a reaction to caller input —
	// malformed inputs are rejected with typed errors at the public boundary.
	ap := pp.arenas
	if limbs < 1 || limbs > ap.maxLimbs {
		panic(fmt.Sprintf("ring: pool Get(%d) out of range [1,%d]", limbs, ap.maxLimbs))
	}
	pp.gets.Inc()
	a, _ := ap.pool.Get().(*poolArena)
	if a == nil {
		pp.misses.Inc()
		pp.allocBytes.Add(int64(ap.n) * int64(ap.maxLimbs) * 8)
		p := NewPoly(ap.n, ap.maxLimbs)
		a = &poolArena{owner: ap, coeffs: p.Coeffs, backing: p.Backing}
	}
	p := Poly{
		Coeffs:  a.coeffs[:limbs],
		Backing: a.backing[: limbs*ap.n : limbs*ap.n],
		arena:   a,
	}
	if contractChecks {
		a.pooled = false
		for i := range p.Backing {
			p.Backing[i] = poolPoison
		}
	}
	return p
}

// GetZero returns a zeroed polynomial with exactly `limbs` rows.
func (pp *PolyPool) GetZero(limbs int) Poly {
	p := pp.Get(limbs)
	p.Zero()
	return p
}

// Put returns a polynomial obtained from Get back to the pool. Puts of
// polynomials that did not come from this pool or one sharing its buffers (no
// arena, or another reservoir's arena) are ignored, so callers can uniformly
// release mixed scratch. p must not be used after Put.
func (pp *PolyPool) Put(p Poly) {
	a := p.arena
	if a == nil || a.owner != pp.arenas {
		return // not one of ours; let the GC have it
	}
	if contractChecks {
		// INVARIANT: a routine recycles only what it created, once.
		// A panic here is a repo-internal bug, never a reaction to caller input.
		if a.pooled {
			panic("ring: PolyPool.Put of a buffer that is already in the pool")
		}
		a.pooled = true
	}
	pp.puts.Inc()
	pp.arenas.pool.Put(a)
}
