package ring

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalises a parallelism request into a concrete worker count:
//
//	n <= 0  -> GOMAXPROCS (use every available core)
//	n == 1  -> 1 (serial execution, no goroutines spawned)
//	n >= 2  -> n
//
// This is the single interpretation of the "Parallelism" knob used by every
// fan-out in the repository (ModUp digits, KeyMult rows, the ModDown and
// Rescale components, the Mul tensor).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// forkJoins counts the calls of ForEachLimbRange that started goroutines.
var forkJoins atomic.Uint64

// ForkJoins returns how many fork-joins ForEachLimbRange has run in this
// process: the measure of how finely an operation is split across cores.
func ForkJoins() uint64 { return forkJoins.Load() }

// ForEachLimbRange partitions [0, tasks) into min(tasks, workers) contiguous
// chunks whose sizes differ by at most one, and runs fn(lo, hi) once per
// chunk: the last (largest) chunk on the calling goroutine, every other one on
// a goroutine of its own. A task is whatever the caller fans out over — a
// limb, a digit, a component — and its chunks are coarse (one range per
// worker), so the scheduling cost stays one fork-join per call. workers
// follows the Workers convention (<= 0 means GOMAXPROCS, 1 means serial: fn
// runs once, on the caller, with no goroutine).
//
// fn must be safe to call concurrently on disjoint ranges; ranges never
// overlap and together cover [0, tasks) exactly once.
func ForEachLimbRange(tasks, workers int, fn func(lo, hi int)) {
	if tasks <= 0 {
		return
	}
	w := min(Workers(workers), tasks)
	if w < 2 {
		fn(0, tasks)
		return
	}
	forkJoins.Add(1)
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for c := 0; c < w-1; c++ {
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(tasks*c/w, tasks*(c+1)/w)
	}
	fn(tasks*(w-1)/w, tasks)
	wg.Wait()
}

// ForEachLimb runs fn(i) for every index in [0, tasks), distributing
// contiguous index ranges across up to `workers` goroutines.
func ForEachLimb(tasks, workers int, fn func(i int)) {
	ForEachLimbRange(tasks, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}
