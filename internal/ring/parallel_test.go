package ring

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForEachLimbCoversAll(t *testing.T) {
	for _, limbs := range []int{1, 3, 4, 7, 16, 33} {
		var mask [64]int32
		var count int32
		ForEachLimb(limbs, -1, func(i int) {
			atomic.AddInt32(&mask[i], 1)
			atomic.AddInt32(&count, 1)
		})
		if int(count) != limbs {
			t.Fatalf("limbs=%d: %d calls", limbs, count)
		}
		for i := 0; i < limbs; i++ {
			if mask[i] != 1 {
				t.Fatalf("limbs=%d: index %d visited %d times", limbs, i, mask[i])
			}
		}
	}
}

// TestForEachLimbRangeSplit pins the chunking: min(tasks, workers) chunks
// whose sizes differ by at most one, the largest last, one fork-join for a
// call that starts goroutines and none for one that runs serially.
func TestForEachLimbRangeSplit(t *testing.T) {
	for _, tc := range []struct {
		tasks, workers int
		want           [][2]int
		forks          uint64
	}{
		{5, 2, [][2]int{{0, 2}, {2, 5}}, 1},
		{2, 2, [][2]int{{0, 1}, {1, 2}}, 1},
		{7, 3, [][2]int{{0, 2}, {2, 4}, {4, 7}}, 1},
		{1, 2, [][2]int{{0, 1}}, 0},
		{6, 1, [][2]int{{0, 6}}, 0},
	} {
		var mu sync.Mutex
		var got [][2]int
		before := ForkJoins()
		ForEachLimbRange(tc.tasks, tc.workers, func(lo, hi int) {
			mu.Lock()
			got = append(got, [2]int{lo, hi})
			mu.Unlock()
		})
		if forks := ForkJoins() - before; forks != tc.forks {
			t.Errorf("tasks=%d workers=%d: %d fork-joins, want %d", tc.tasks, tc.workers, forks, tc.forks)
		}
		slices.SortFunc(got, func(a, b [2]int) int { return a[0] - b[0] })
		if !slices.Equal(got, tc.want) {
			t.Errorf("tasks=%d workers=%d: chunks %v, want %v", tc.tasks, tc.workers, got, tc.want)
		}
	}
}
