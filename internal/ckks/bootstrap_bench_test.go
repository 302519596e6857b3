package ckks

import "testing"

// BenchmarkBootstrap times one bootstrap at the functional-bootstrap
// parameter point (log_n 12, 16 slots, 24 levels) and each stage on the
// ciphertext the stage before it produced, so the stage rows sum to the
// whole.
func BenchmarkBootstrap(b *testing.B) {
	params, err := NewParameters(bootstrapLiteral(12, 4, 3))
	if err != nil {
		b.Fatal(err)
	}
	tc, bt := newBootstrapContext(b, params)
	low := exhausted(b, tc, stageValues(params.Slots()))
	raised, err := bt.modRaise(low)
	if err != nil {
		b.Fatal(err)
	}
	folded, err := bt.subSum(nil, raised)
	if err != nil {
		b.Fatal(err)
	}
	packed, err := bt.coeffToSlot(nil, folded)
	if err != nil {
		b.Fatal(err)
	}
	reduced, err := bt.evalMod(nil, packed[0], low.Scale)
	if err != nil {
		b.Fatal(err)
	}

	stages := []struct {
		name string
		run  func() error
	}{
		{"Bootstrap", func() error { _, err := bt.Bootstrap(low); return err }},
		{"ModRaise", func() error { _, err := bt.modRaise(low); return err }},
		{"SubSum", func() error { _, err := bt.subSum(nil, raised); return err }},
		{"CoeffToSlot", func() error { _, err := bt.coeffToSlot(nil, folded); return err }},
		{"EvalMod", func() error { _, err := bt.evalMod(nil, packed[0], low.Scale); return err }},
		{"SlotToCoeff", func() error { _, err := bt.slotToCoeff(nil, []*Ciphertext{reduced}); return err }},
	}
	for _, st := range stages {
		b.Run(st.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := st.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
