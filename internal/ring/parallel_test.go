package ring

import (
	"sync/atomic"
	"testing"
)

func TestParallelNTTMatchesSequential(t *testing.T) {
	r := testRing(t, 10, 36, 8)
	p := randPoly(r, 21)
	q := p.Clone()

	r.NTT(p)
	r.NTTWorkers(q, -1)
	if !p.Equal(q) {
		t.Fatal("parallel NTT differs from sequential")
	}
	r.INTT(p)
	r.INTTWorkers(q, -1)
	if !p.Equal(q) {
		t.Fatal("parallel INTT differs from sequential")
	}
}

func TestParallelRoundTrip(t *testing.T) {
	r := testRing(t, 9, 36, 6)
	p := randPoly(r, 22)
	orig := p.Clone()
	r.NTTWorkers(p, -1)
	r.INTTWorkers(p, -1)
	if !p.Equal(orig) {
		t.Fatal("parallel round trip failed")
	}
}

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

func BenchmarkNTTSequential(b *testing.B) {
	ps, _ := GenerateNTTPrimes(36, 12, 16)
	r, _ := NewRing(12, ps)
	p := r.NewPoly()
	NewSampler(1).UniformPoly(r, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.NTT(p)
	}
}

func BenchmarkNTTParallel(b *testing.B) {
	ps, _ := GenerateNTTPrimes(36, 12, 16)
	r, _ := NewRing(12, ps)
	p := r.NewPoly()
	NewSampler(1).UniformPoly(r, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.NTTWorkers(p, -1)
	}
}
