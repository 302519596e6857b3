package ring

import (
	"runtime"
	"sync"
)

// parallelThreshold is the limb count from which the per-limb transforms are
// fanned out across cores. RNS limbs are fully independent (the property the
// FAST accelerator's lane parallelism exploits), so the split is safe and
// deterministic.
const parallelThreshold = 4

// Workers normalises a parallelism request into a concrete worker count:
//
//	n <= 0  -> GOMAXPROCS (use every available core)
//	n == 1  -> 1 (serial execution, no goroutines spawned)
//	n >= 2  -> n
//
// This is the single interpretation of the "Parallelism" knob used by every
// limb-parallel kernel in the repository (NTT, BConv, ModUp, ModDown,
// KeyMult, Rescale).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEachLimbRange partitions [0, limbs) into at most `workers` contiguous
// chunks and runs fn(lo, hi) for each chunk, in parallel when it pays off.
// Unlike a one-channel-item-per-limb fan-out, chunking keeps per-goroutine
// work coarse (one range per worker) so the scheduling overhead stays
// negligible even for cheap per-limb bodies. workers follows the Workers
// convention (<=0 means GOMAXPROCS, 1 means serial).
//
// fn must be safe to call concurrently on disjoint ranges; ranges never
// overlap and together cover [0, limbs) exactly once.
func ForEachLimbRange(limbs, workers int, fn func(lo, hi int)) {
	if limbs <= 0 {
		return
	}
	w := Workers(workers)
	if w > limbs {
		w = limbs
	}
	if w < 2 || limbs < parallelThreshold {
		fn(0, limbs)
		return
	}
	chunk := (limbs + w - 1) / w
	var wg sync.WaitGroup
	for lo := 0; lo < limbs; lo += chunk {
		hi := lo + chunk
		if hi > limbs {
			hi = limbs
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// ForEachLimb runs fn(i) for every limb index in [0, limbs), distributing
// contiguous index ranges across up to `workers` goroutines.
func ForEachLimb(limbs, workers int, fn func(i int)) {
	ForEachLimbRange(limbs, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// NTTWorkers is NTT with the per-limb transforms distributed across up to
// `workers` goroutines (Workers convention).
func (r *Ring) NTTWorkers(p Poly, workers int) {
	r.checkShape(p)
	ForEachLimb(len(r.Moduli), workers, func(i int) {
		r.Tables[i].Forward(p.Coeffs[i])
	})
}

// INTTWorkers is INTT with the per-limb transforms distributed across up to
// `workers` goroutines (Workers convention).
func (r *Ring) INTTWorkers(p Poly, workers int) {
	r.checkShape(p)
	ForEachLimb(len(r.Moduli), workers, func(i int) {
		r.Tables[i].Inverse(p.Coeffs[i])
	})
}
