package ckks

import (
	"fmt"
	"sort"
)

// LinearTransform is a plaintext matrix M applied homomorphically to the
// slot vector via the diagonal method: M*v = sum_d diag_d(M) ∘ rot_d(v).
// With the baby-step/giant-step split (d = g*bs + b) the rotation count
// drops from |diags| to ~2*sqrt(|diags|), and all baby rotations share one
// hoisted decomposition — the exact structure of the CoeffToSlot/SlotToCoeff
// homomorphic DFTs the bootstrap workload is made of.
type LinearTransform struct {
	level int
	scale float64
	bs    int // baby-step width (0 = naive, no BSGS)

	// diags[d] is the encoded d-th generalised diagonal; for BSGS the
	// giant-share diagonals are pre-rotated by -g*bs at encoding time.
	diags map[int]*Plaintext
	n     int // slots
}

// NewLinearTransform encodes the non-zero generalised diagonals of a matrix
// for application at the given level. diags[d][i] must equal M[i][(i+d)%n].
// bs is the baby-step width; 0 picks sqrt of the diagonal span.
func NewLinearTransform(enc *Encoder, diags map[int][]complex128, level int, scale float64, bs int) (*LinearTransform, error) {
	if len(diags) == 0 {
		return nil, fmt.Errorf("ckks: linear transform needs at least one diagonal")
	}
	n := enc.params.Slots()
	lt := &LinearTransform{level: level, scale: scale, diags: map[int]*Plaintext{}, n: n}

	maxD := 0
	for d, v := range diags {
		if d < 0 || d >= n {
			return nil, fmt.Errorf("ckks: diagonal index %d out of [0,%d): %w", d, n, ErrSlotCountMismatch)
		}
		if len(v) != n {
			return nil, fmt.Errorf("ckks: diagonal %d has %d entries, want %d: %w", d, len(v), n, ErrSlotCountMismatch)
		}
		if d > maxD {
			maxD = d
		}
	}
	if bs <= 0 {
		bs = 1
		for bs*bs < maxD+1 {
			bs <<= 1
		}
	}
	lt.bs = bs

	for d, v := range diags {
		g := d / bs
		rotBy := g * bs // the giant step this diagonal is applied under
		// Pre-rotate the diagonal by -rotBy so that
		// rot_{g*bs}(prerot(diag) ∘ rot_b(v))[i] = prerot[(i+g*bs)%n] *
		// v[(i+d)%n] = diag[i] * v[(i+d)%n].
		pre := make([]complex128, n)
		for i := range pre {
			pre[i] = v[((i-rotBy)%n+n)%n]
		}
		pt, err := enc.EncodeAtLevel(pre, level, scale)
		if err != nil {
			return nil, err
		}
		lt.diags[d] = pt
	}
	return lt, nil
}

// Rotations returns the rotation amounts the evaluator will need Galois keys
// for (baby steps and giant steps).
func (lt *LinearTransform) Rotations() []int {
	babies := map[int]bool{}
	giants := map[int]bool{}
	for d := range lt.diags {
		babies[d%lt.bs] = true
		if g := (d / lt.bs) * lt.bs; g != 0 {
			giants[g] = true
		}
	}
	var out []int
	for b := range babies {
		if b != 0 {
			out = append(out, b)
		}
	}
	for g := range giants {
		out = append(out, g)
	}
	sort.Ints(out)
	return out
}

// LinearTransform applies lt to ct: baby rotations are hoisted (one shared
// decomposition), inner sums are plaintext multiplications, giant rotations
// move each partial sum into place. The result carries scale ct.Scale*lt
// scale; the caller rescales.
func (ev *Evaluator) LinearTransform(ct *Ciphertext, lt *LinearTransform) (*Ciphertext, error) {
	return ev.linearTransform(nil, ct, lt, heapResult)
}

// linearTransform polls cc inside the hoisted baby rotations, per giant
// bucket and per giant step, so a deep homomorphic DFT abandons within a
// fraction of one key-switch of its context being done. Each giant bucket
// Σ_b diag_{g·bs+b} ∘ rot_b(ct) is one multiply-accumulate per row
// (mulPlainSum); the rotations, buckets and partial sums are pooled and
// recycled here, and the result is per mode.
func (ev *Evaluator) linearTransform(cc *cancelCheck, ct *Ciphertext, lt *LinearTransform, mode resultMode) (*Ciphertext, error) {
	if ct.Level < lt.level {
		return nil, fmt.Errorf("ckks: ciphertext at level %d below transform level %d: %w", ct.Level, lt.level, ErrLevelMismatch)
	}
	ct = ct.view(lt.level)

	// buckets[g] lists the diagonals g + b (b < bs) applied under giant step g.
	buckets := map[int][]int{}
	babySet := map[int]bool{}
	for d := range lt.diags {
		b, g := d%lt.bs, (d/lt.bs)*lt.bs
		buckets[g] = append(buckets[g], d)
		if b != 0 {
			babySet[b] = true
		}
	}
	babies := sortedKeys(babySet)

	// Hoist the distinct nonzero baby rotations; rot_0 is ct itself.
	rotated := map[int]*Ciphertext{}
	if len(babies) > 0 {
		var err error
		if rotated, _, err = ev.rotateHoistedSums(cc, ct, babies, nil, Hybrid, poolResult); err != nil {
			return nil, err
		}
	}
	defer func() {
		for _, r := range rotated {
			ev.recycle(r)
		}
	}()
	rotatedBy := func(b int) *Ciphertext {
		if b == 0 {
			return ct
		}
		return rotated[b]
	}

	// Apply each bucket's giant rotation and accumulate.
	var out *Ciphertext
	for _, g := range sortedKeys(buckets) {
		if err := cc.err("LinearTransform"); err != nil {
			ev.recycle(out)
			return nil, err
		}
		var cts []*Ciphertext
		var pts []*Plaintext
		for _, d := range buckets[g] {
			cts = append(cts, rotatedBy(d%lt.bs))
			pts = append(pts, lt.diags[d])
		}
		part, err := ev.mulPlainSum(cts, pts, poolResult)
		if err == nil && g != 0 {
			var moved *Ciphertext
			moved, err = ev.rotate(cc, part, g, Hybrid, poolResult)
			ev.recycle(part)
			part = moved
		}
		if err != nil {
			ev.recycle(out)
			return nil, err
		}
		if out == nil {
			out = part
			continue
		}
		sum, err := ev.addSub(out, part, false, poolResult)
		ev.recycle(out, part)
		if err != nil {
			return nil, err
		}
		out = sum
	}
	return ev.export(out, mode), nil
}

// sortedKeys returns the keys of an int-keyed map in increasing order.
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
