// Encrypted matrix-vector multiplication with the diagonal method and
// hoisted rotations — the linear-operation workload (convolutions,
// fully-connected layers) that motivates the paper's hoisting support
// (§2.2.3): all rotations of the input share a single decomposition.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"

	fast "github.com/fastfhe/fast"
)

const dim = 8 // matrix dimension (must divide the slot count)

// diagonal d of m as a plaintext vector replicated across the slots.
func diagonal(m [dim][dim]float64, d, slots int) []complex128 {
	out := make([]complex128, slots)
	for i := 0; i < slots; i++ {
		row := i % dim
		out[i] = complex(m[row][(row+d)%dim], 0)
	}
	return out
}

func main() {
	rotations := make([]int, dim)
	for i := range rotations {
		rotations[i] = i
	}
	// WithParallelism(-1) fans each stage of an operation (ModUp digits,
	// KeyMult rows, ModDown components) out across all cores — the right
	// knob for a single latency-sensitive stream like this mat-vec.
	cfg := fast.DefaultConfig()
	cfg.Rotations = rotations
	ctx, err := fast.NewContext(cfg, fast.WithParallelism(-1))
	if err != nil {
		log.Fatal(err)
	}
	slots := ctx.Slots()

	rng := rand.New(rand.NewSource(42))
	var m [dim][dim]float64
	for i := range m {
		for j := range m[i] {
			m[i][j] = rng.Float64() - 0.5
		}
	}
	x := make([]complex128, slots)
	for i := range x {
		x[i] = complex(rng.Float64()-0.5, 0)
	}

	ct, err := ctx.Encrypt(x)
	if err != nil {
		log.Fatal(err)
	}

	// y = M*x via the diagonal method: y = sum_d diag_d(M) * rot(x, d).
	// One hoisted decomposition serves all dim rotations.
	start := time.Now()
	rots, err := ctx.RotateHoisted(ct, rotations)
	if err != nil {
		log.Fatal(err)
	}
	var acc *fast.Ciphertext
	for d := 0; d < dim; d++ {
		term, err := ctx.MulPlain(rots[d], diagonal(m, d, slots))
		if err != nil {
			log.Fatal(err)
		}
		if acc == nil {
			acc = term
		} else if acc, err = ctx.Add(acc, term); err != nil {
			log.Fatal(err)
		}
	}
	elapsed := time.Since(start)

	got := ctx.Decrypt(acc)
	worst := 0.0
	for i := 0; i < slots; i++ {
		// Diagonal identity: y_i = sum_d M[row][(row+d)%dim] * x[(i+d)%n].
		row := i % dim
		ref := 0.0
		for d := 0; d < dim; d++ {
			ref += m[row][(row+d)%dim] * real(x[(i+d)%slots])
		}
		if e := math.Abs(real(got[i]) - ref); e > worst {
			worst = e
		}
	}
	fmt.Printf("encrypted %dx%d mat-vec over %d slots: max error %.2e, %v (1 hoisted decomposition, %d rotations)\n",
		dim, dim, slots, worst, elapsed, dim)
}
