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
							err = be.ks.keyMult(nil, []ksTerm{{rd, be.key}}, level, d0, d1)
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

// BenchmarkRotateSum times a hoist group summed by an Add tree both ways:
// fused, one rotate-and-sum (RotateSumWith: one ModUp, h KeyMults into one
// PQ accumulator pair, one ModDown pair), and unfused, the hoisted rotations
// (RotateHoistedWith: a ModDown pair each) added up. Munits is the online
// count's prediction (costmodel.Shape.Hoisted with one pair, KeySwitch with
// h). The points are the two benchmark programs' groups: fanoutProgram's at
// fast.DefaultConfig's shape (log_n 11, ℓ 5, serial, as fastd runs it) for
// h = 1–4, and deepProgram's at lib_deep's (log_n 13, 11 levels, the group
// at ℓ 9, two-way limb fan-out).
//
//	go test -run '^$' -bench RotateSum -benchtime 40x ./internal/ckks
func BenchmarkRotateSum(b *testing.B) {
	for _, pt := range []struct {
		logN, levels, level, workers int
		hoists                       []int
	}{
		{11, 5, 5, 1, []int{1, 2, 3, 4}},
		{13, 11, 9, 2, []int{4}},
	} {
		lit := ParametersLiteral{
			LogN: pt.logN, LogSlots: pt.logN - 1, LogQ: append([]int{50}, repeat(36, pt.levels)...),
			LogP: []int{50, 50}, LogScale: 36, Alpha: 2, Seed: 1,
		}
		params, err := NewParameters(lit)
		if err != nil {
			b.Fatal(err)
		}
		kgen := NewKeyGenerator(params)
		sk := kgen.GenSecretKey()
		allRots := []int{1, 4, -1, 8}
		keys, err := kgen.GenEvaluationKeySet(sk, []KeySwitchMethod{Hybrid}, allRots, false)
		if err != nil {
			b.Fatal(err)
		}
		eval, err := NewEvaluatorOptions(params, keys, EvaluatorOptions{Parallelism: pt.workers})
		if err != nil {
			b.Fatal(err)
		}
		pt0, err := NewEncoder(params).Encode(make([]complex128, params.Slots()))
		if err != nil {
			b.Fatal(err)
		}
		top, err := NewEncryptor(params, kgen.GenPublicKey(sk)).Encrypt(pt0)
		if err != nil {
			b.Fatal(err)
		}
		ct := eval.DropLevel(top, top.Level-pt.level)
		shape := lit.KeySwitchShape()
		for _, h := range pt.hoists {
			rots := allRots[:h]
			unfused := func() error {
				outs, err := eval.RotateHoistedWith(ct, rots, Hybrid)
				if err != nil {
					return err
				}
				sum := outs[rots[0]]
				for _, r := range rots[1:] {
					if sum, err = eval.Add(sum, outs[r]); err != nil {
						return err
					}
				}
				return nil
			}
			fused := func() error {
				_, err := eval.RotateSumWith(ct, rots, Hybrid)
				return err
			}
			for _, way := range []struct {
				name   string
				run    func() error
				munits float64
			}{
				{"fused", fused, shape.Hoisted(Hybrid, pt.level, h, 1).Total() / 1e6},
				{"unfused", unfused, shape.KeySwitch(Hybrid, pt.level, h).Total() / 1e6},
			} {
				b.Run(fmt.Sprintf("logn%d/l%d/h%d/%s", pt.logN, pt.level, h, way.name), func(b *testing.B) {
					if err := way.run(); err != nil { // builds the level's switch tables
						b.Fatal(err)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := way.run(); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/op")
					b.ReportMetric(way.munits, "Munits")
				})
			}
		}
	}
}
