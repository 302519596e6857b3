package ckks

import (
	"fmt"
	"testing"

	"github.com/fastfhe/fast/internal/ring"
)

// BenchmarkKeySwitchMethods is the paper's Fig. 2 on this CPU: the wall time
// of a key switch under each method across the chain, next to the online
// count's prediction for it (Munits, costmodel.Shape.KeySwitch). The point is
// the fast.NewContext regime at log_n 13, deepened to 24 levels: 36-bit
// primes under a 50-bit q0, hybrid over two 50-bit P primes, KLSS over two
// 60-bit T primes, digits of two for both. A row is one ModUp shared by
// `hoist` rotations (automorphism, KeyMult, ModDown each), serial; one key
// serves every rotation, which costs what distinct keys would.
//
//	go test -run '^$' -bench KeySwitchMethods -benchtime 10x ./internal/ckks
func BenchmarkKeySwitchMethods(b *testing.B) {
	lit := ParametersLiteral{
		LogN: 13, LogSlots: 12, LogQ: append([]int{50}, repeat(36, 24)...), LogP: []int{50, 50},
		LogT: []int{60, 60}, LogScale: 36, Alpha: 2, AlphaT: 2, Seed: 1,
	}
	params, err := NewParameters(lit)
	if err != nil {
		b.Fatal(err)
	}
	kgen := NewKeyGenerator(params)
	sk := kgen.GenSecretKey()
	pt, err := NewEncoder(params).Encode(make([]complex128, params.Slots()))
	if err != nil {
		b.Fatal(err)
	}
	ct, err := NewEncryptor(params, kgen.GenPublicKey(sk)).Encrypt(pt)
	if err != nil {
		b.Fatal(err)
	}
	idx := params.GaloisIndex(ring.GaloisElementForRotation(params.LogN(), 1))
	shape := lit.KeySwitchShape()
	type backend struct {
		ks  *KeySwitcher
		key *SwitchingKey
	}
	var backends []backend
	for _, m := range []KeySwitchMethod{Hybrid, KLSS} {
		key, err := kgen.GenRelinearizationKey(sk, m)
		if err != nil {
			b.Fatal(err)
		}
		ks, err := NewKeySwitcherWorkers(params, m, 1)
		if err != nil {
			b.Fatal(err)
		}
		backends = append(backends, backend{ks, key})
	}
	// The methods alternate row by row, so a drift in the host's speed moves
	// both sides of a ratio.
	for _, level := range []int{4, 8, 11, 16, 20, 24} {
		c := ct.C1.Truncated(level + 1)
		d0, d1 := ring.NewPoly(params.N(), level+1), ring.NewPoly(params.N(), level+1)
		for _, hoist := range []int{1, 4} {
			for _, be := range backends {
				m := be.ks.Method()
				b.Run(fmt.Sprintf("l%d/h%d/%v", level, hoist, m), func(b *testing.B) {
					group := func() {
						d, err := be.ks.Decompose(c, level)
						if err != nil {
							b.Fatal(err)
						}
						for range hoist {
							rd := be.ks.Automorph(d, idx)
							err = be.ks.keyMult(nil, rd, be.key, level, d0, d1)
							be.ks.Release(rd)
							if err != nil {
								b.Fatal(err)
							}
						}
						be.ks.Release(d)
					}
					group() // the level's switch tables are built on first use
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						group()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/op")
					b.ReportMetric(shape.KeySwitch(m, level, hoist).Total()/1e6, "Munits")
				})
			}
		}
	}
}
