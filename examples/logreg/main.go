// Encrypted logistic-regression inference — the HELR-style workload (§6.2):
// a dot product between an encrypted feature vector and plaintext weights
// (rotation tree for the inner sum) followed by a polynomial approximation
// of the sigmoid, CKKS's way of evaluating non-linear functions (§2.2.2).
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
)
import fast "github.com/fastfhe/fast"

const features = 16 // power of two so the rotation tree closes

// sigmoid3 is the degree-3 least-squares approximation of 1/(1+e^-x) on
// [-4,4] used by the original HELR paper: 0.5 + 0.15x - 0.0015x^3.
func sigmoid3(x float64) float64 { return 0.5 + 0.15*x - 0.0015*x*x*x }

func main() {
	rots := []int{}
	for r := 1; r < features; r *= 2 {
		rots = append(rots, r)
	}
	cfg := fast.DefaultConfig()
	cfg.Rotations = rots
	ctx, err := fast.NewContext(cfg)
	if err != nil {
		log.Fatal(err)
	}
	slots := ctx.Slots()
	samples := slots / features

	rng := rand.New(rand.NewSource(7))
	weights := make([]float64, features)
	for i := range weights {
		weights[i] = rng.Float64()*2 - 1
	}
	// Pack `samples` feature vectors back to back.
	x := make([]complex128, slots)
	for i := range x {
		x[i] = complex(rng.Float64()*2-1, 0)
	}

	ct, err := ctx.Encrypt(x)
	if err != nil {
		log.Fatal(err)
	}

	// Dot product: multiply by the replicated weights, then fold with a
	// rotation tree so slot i of each sample block holds the full sum.
	wRep := make([]complex128, slots)
	for i := range wRep {
		wRep[i] = complex(weights[i%features], 0)
	}
	// NoRescale defers the post-multiplication rescale: the rotation tree
	// runs on the product scale and the sum pays a single rescale at the
	// end instead of one before the fold.
	acc, err := ctx.MulPlain(ct, wRep, fast.NoRescale())
	if err != nil {
		log.Fatal(err)
	}
	for r := 1; r < features; r *= 2 {
		rot, err := ctx.Rotate(acc, r)
		if err != nil {
			log.Fatal(err)
		}
		if acc, err = ctx.Add(acc, rot); err != nil {
			log.Fatal(err)
		}
	}
	if acc, err = ctx.Rescale(acc); err != nil {
		log.Fatal(err)
	}

	// Sigmoid: 0.5 + 0.15*z - 0.0015*z^3 (Horner on the encrypted z).
	z := acc
	z2, err := ctx.Mul(z, z)
	if err != nil {
		log.Fatal(err)
	}
	inner, err := ctx.MulConst(z2, -0.0015) // -0.0015*z^2
	if err != nil {
		log.Fatal(err)
	}
	inner, err = ctx.AddConst(inner, 0.15) // 0.15 - 0.0015*z^2
	if err != nil {
		log.Fatal(err)
	}
	pred, err := ctx.Mul(z, inner) // 0.15*z - 0.0015*z^3
	if err != nil {
		log.Fatal(err)
	}
	pred, err = ctx.AddConst(pred, 0.5)
	if err != nil {
		log.Fatal(err)
	}

	got := ctx.Decrypt(pred)
	worst := 0.0
	for s := 0; s < samples; s++ {
		dot := 0.0
		for j := 0; j < features; j++ {
			// The rotation tree folds x[s*features+j] against the weight
			// at position (s*features+j) % features for every offset; the
			// block-aligned packing makes slot s*features hold the full
			// wrapped dot product.
			dot += weights[j] * real(x[s*features+j])
		}
		want := sigmoid3(dot)
		if e := math.Abs(real(got[s*features]) - want); e > worst {
			worst = e
		}
	}
	fmt.Printf("encrypted logistic inference: %d samples x %d features, max |error| %.2e, levels %d -> %d\n",
		samples, features, worst, ctx.MaxLevel(), pred.Level())
}
