// Package rns provides the residue-number-system tools the CKKS scheme and
// the FAST accelerator's BConv units operate on: approximate base conversion
// between RNS bases (the BConv kernel), ModUp/ModDown for key-switching, and
// rescaling. All routines work on polynomials in coefficient representation.
//
// The base conversion implemented here is the Halevi–Polyak–Shoup fast
// approximate conversion: it may add a small multiple u*Q of the source
// modulus (0 <= u < #source limbs) to the converted value. Every consumer in
// this codebase is designed for that contract (key-switching absorbs the
// Q-multiple into the key gadget, ModDown removes it with the rounding
// correction).
//
// Concurrency: Extender, ModDowner and Rescaler are immutable after
// construction apart from an internal scratch pool, and are safe for
// concurrent use from multiple goroutines. Their Workers field (read-only
// after construction) fans the independent per-limb loops out across
// goroutines following ring.Workers semantics — the lane-level parallelism
// the FAST accelerator's BConvU array provides in hardware.
package rns

import (
	"fmt"
	"math/big"
	"math/bits"
	"sync"

	"github.com/fastfhe/fast/internal/ring"
)

// rowMatrix is an arena-backed scratch matrix: rows[i] aliases
// backing[i*n : (i+1)*n], so kernels that want strided access (the vectorized
// BConv accumulate) can run over the contiguous backing while per-limb loops
// keep the row view.
type rowMatrix struct {
	rows    [][]uint64
	backing []uint64
}

// rowPool recycles arena-backed scratch matrices of a fixed shape.
type rowPool struct {
	rows, n int
	pool    sync.Pool
}

func newRowPool(rows, n int) *rowPool {
	rp := &rowPool{rows: rows, n: n}
	rp.pool.New = func() any {
		backing := make([]uint64, rows*n)
		m := make([][]uint64, rows)
		for i := range m {
			m[i] = backing[i*n : (i+1)*n : (i+1)*n]
		}
		return &rowMatrix{rows: m, backing: backing}
	}
	return rp
}

func (rp *rowPool) get() *rowMatrix  { return rp.pool.Get().(*rowMatrix) }
func (rp *rowPool) put(m *rowMatrix) { rp.pool.Put(m) }

// Extender converts RNS representations from a source basis Q = {q_i} to a
// target basis P = {p_j}. The precomputations follow the standard CRT
// factorisation x = sum_i [x_i * (Q/q_i)^-1]_{q_i} * (Q/q_i) (mod Q).
type Extender struct {
	From, To []ring.Modulus

	// Workers caps the goroutine fan-out of Convert (ring.Workers
	// convention; 1 = serial). Set once before first use.
	Workers int

	qhatInv     []uint64   // (Q/q_i)^-1 mod q_i
	qhatInvSho  []uint64   // Shoup companions of qhatInv
	qhatModP    [][]uint64 // [j][i] = (Q/q_i) mod p_j
	qhatModPSho [][]uint64 // [j][i] = Shoup companion of qhatModP[j][i] under p_j

	// srcBound is the exclusive bound of the inner product's source rows (the
	// fully reduced t_i, so the largest source prime). With the target
	// modulus and the base width it decides, per target limb, whether the
	// sum runs on the 52-bit multiply-accumulate (ring.Modulus.BConvAccum): a
	// 60-bit source or target keeps the 64-bit kernel.
	srcBound uint64

	scratch struct {
		mu    sync.Mutex
		n     int
		pools *rowPool
	}
}

// NewExtender precomputes the conversion tables from the `from` chain to the
// `to` chain. The two chains must be disjoint.
func NewExtender(from, to []ring.Modulus) (*Extender, error) {
	if len(from) == 0 || len(to) == 0 {
		return nil, fmt.Errorf("rns: empty basis (from=%d, to=%d limbs)", len(from), len(to))
	}
	for _, f := range from {
		for _, t := range to {
			if f.Q == t.Q {
				return nil, fmt.Errorf("rns: bases overlap at prime %d", f.Q)
			}
		}
	}
	e := &Extender{From: from, To: to, Workers: 1}

	Q := big.NewInt(1)
	for _, m := range from {
		Q.Mul(Q, new(big.Int).SetUint64(m.Q))
	}
	e.qhatInv = make([]uint64, len(from))
	e.qhatInvSho = make([]uint64, len(from))
	qhat := make([]*big.Int, len(from))
	for i, m := range from {
		e.srcBound = max(e.srcBound, m.Q)
		qi := new(big.Int).SetUint64(m.Q)
		qhat[i] = new(big.Int).Div(Q, qi)
		rem := new(big.Int).Mod(qhat[i], qi).Uint64()
		e.qhatInv[i] = m.InvMod(rem)
		e.qhatInvSho[i] = m.ShoupPrecomp(e.qhatInv[i])
	}
	e.qhatModP = make([][]uint64, len(to))
	e.qhatModPSho = make([][]uint64, len(to))
	for j := range to {
		e.qhatModP[j] = make([]uint64, len(from))
		e.qhatModPSho[j] = make([]uint64, len(from))
		pj := new(big.Int).SetUint64(to[j].Q)
		for i := range from {
			e.qhatModP[j][i] = new(big.Int).Mod(qhat[i], pj).Uint64()
			e.qhatModPSho[j][i] = to[j].ShoupPrecomp(e.qhatModP[j][i])
		}
	}
	return e, nil
}

// scratchRows returns a pooled len(From)-row scratch matrix for coefficient
// count n, plus the pool to return it to.
func (e *Extender) scratchRows(n int) (*rowMatrix, *rowPool) {
	e.scratch.mu.Lock()
	if e.scratch.pools == nil || e.scratch.n != n {
		e.scratch.pools = newRowPool(len(e.From), n)
		e.scratch.n = n
	}
	rp := e.scratch.pools
	e.scratch.mu.Unlock()
	return rp.get(), rp
}

// Convert performs the approximate base conversion of src (one value per
// source limb: src[i][k] is coefficient k mod q_i) into dst (dst[j][k] mod
// p_j). src and dst must have matching coefficient counts. Source rows may be
// lazily reduced ([0, 2q_i), e.g. straight out of ring.NTTTable.InverseLazy);
// outputs are fully reduced. Safe for concurrent use; the per-limb work is
// fanned out across Workers goroutines.
//
// The ℓ-term inner product y_j[k] = Σ_i t_i[k] * (Q/q_i mod p_j) — the matrix
// product the accelerator's BConvU systolic array executes — is accumulated
// HPS-style as a 128-bit (hi, lo) pair via bits.Mul64/bits.Add64 and reduced
// with ONE Barrett step per output coefficient, instead of ℓ round-trips
// through AddMod(MulModShoup(...)). A 128-bit accumulator holds at least
// AccumCapacity terms (≥ 8 even at the 61-bit cap); longer source bases fold
// the accumulator through an intermediate Barrett reduction.
func (e *Extender) Convert(src, dst [][]uint64) {
	e.ConvertRows(src, dst, nil)
}

// ConvertRows is Convert with the destination rows picked out of a larger row
// set: target limb j is written to rows[idx[j]] (rows[j] when idx is nil). It
// lets a caller that converts into the gaps of one polynomial — ModUp writes
// every row but the digit's own — keep one precomputed index list per
// extender instead of assembling a destination slice per call.
func (e *Extender) ConvertRows(src, rows [][]uint64, idx []int) {
	// INVARIANT: basis shapes are derived from one validated parameter set.
	// A panic here is a repo-internal bug, never a reaction to caller input —
	// malformed inputs are rejected with typed errors at the public boundary.
	nDst := len(rows)
	if idx != nil {
		nDst = len(idx)
	}
	if len(src) != len(e.From) || nDst != len(e.To) {
		panic(fmt.Sprintf("rns: Convert limb mismatch: src %d/%d, dst %d/%d",
			len(src), len(e.From), nDst, len(e.To)))
	}
	n := len(src[0])
	// t_i = x_i * (Q/q_i)^-1 mod q_i — independent per source limb. Lazy
	// inputs (x_i < 2q_i, ShoupMulVec's source bound) are tolerated; t_i is
	// always fully reduced.
	t, rp := e.scratchRows(n)
	defer rp.put(t)
	ring.ForEachLimbRange(len(e.From), e.Workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			m := e.From[i]
			inv, invSho := e.qhatInv[i], e.qhatInvSho[i]
			m.ShoupMulVec(t.rows[i], src[i][:n], inv, invSho)
		}
	})
	l := len(e.From)
	tRows := t.rows[:l]
	backing := t.backing
	ring.ForEachLimbRange(len(e.To), e.Workers, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			mp := e.To[j]
			dj := rows[j]
			if idx != nil {
				dj = rows[idx[j]]
			}
			ws := e.qhatModP[j]
			if capTerms := mp.AccumCapacity(); l > capTerms {
				convertFold(mp, tRows, ws, dj, n, capTerms)
				continue
			}
			// The scratch arena has the rows at stride n, so the inner
			// product runs over the contiguous backing (vectorized when the
			// assembly kernels are in). The precomputed Shoup companions let
			// short bases take the per-term lazy-Shoup kernel.
			mp.BConvAccumShoup(dj[:n], backing, n, ws[:l], e.qhatModPSho[j][:l], e.srcBound)
		}
	})
}

// convertFold is the long-base fallback of Convert: when the source base has
// more limbs than the target modulus' 128-bit accumulator capacity, the
// accumulator is folded through an intermediate Barrett reduction every `cap`
// terms (the folded value < p counts as one term). Only reachable for ℓ > 8
// source limbs at the 61-bit cap; ciphertext-prime targets never fold.
func convertFold(mp ring.Modulus, rows [][]uint64, ws, dj []uint64, n, capTerms int) {
	l := len(rows)
	for k := 0; k < n; k++ {
		var accHi, accLo uint64
		terms := 0
		for i := 0; i < l; i++ {
			if terms == capTerms {
				accLo = mp.Reduce(accHi, accLo)
				accHi = 0
				terms = 1
			}
			ph, pl := bits.Mul64(rows[i][k], ws[i])
			var c uint64
			accLo, c = bits.Add64(accLo, pl, 0)
			accHi += ph + c
			terms++
		}
		dj[k] = mp.Reduce(accHi, accLo)
	}
}

// ModDowner removes an auxiliary modulus P from a value defined over Q*P:
// out = round(x / P) mod Q, the final step of both key-switching methods.
type ModDowner struct {
	Q, P []ring.Modulus

	// Workers caps the goroutine fan-out (ring.Workers convention; 1 =
	// serial). Set once before first use; propagated to the inner BConv.
	Workers int

	conv       *Extender // P -> Q
	pInvMod    []uint64  // P^-1 mod q_i
	pInvModSho []uint64  // Shoup companions

	scratch struct {
		mu    sync.Mutex
		n     int
		pools *rowPool
	}
}

// NewModDowner precomputes the ModDown tables for main chain Q and auxiliary
// chain P.
func NewModDowner(q, p []ring.Modulus) (*ModDowner, error) {
	conv, err := NewExtender(p, q)
	if err != nil {
		return nil, err
	}
	d := &ModDowner{Q: q, P: p, Workers: 1, conv: conv}
	Pprod := big.NewInt(1)
	for _, m := range p {
		Pprod.Mul(Pprod, new(big.Int).SetUint64(m.Q))
	}
	d.pInvMod = make([]uint64, len(q))
	d.pInvModSho = make([]uint64, len(q))
	for i, m := range q {
		rem := new(big.Int).Mod(Pprod, new(big.Int).SetUint64(m.Q)).Uint64()
		d.pInvMod[i] = m.InvMod(rem)
		d.pInvModSho[i] = m.ShoupPrecomp(d.pInvMod[i])
	}
	return d, nil
}

// SetWorkers sets the fan-out on the downer and its inner converter. Call
// before first use; not safe to race with ModDown.
func (d *ModDowner) SetWorkers(w int) {
	d.Workers = w
	d.conv.Workers = w
}

func (d *ModDowner) scratchRows(n int) (*rowMatrix, *rowPool) {
	d.scratch.mu.Lock()
	if d.scratch.pools == nil || d.scratch.n != n {
		d.scratch.pools = newRowPool(len(d.Q), n)
		d.scratch.n = n
	}
	rp := d.scratch.pools
	d.scratch.mu.Unlock()
	return rp.get(), rp
}

// ModDown computes out_i = (xQ_i - conv(xP)_i) * P^-1 mod q_i for each main
// limb. xQ has len(Q) rows, xP len(P) rows, out len(Q) rows; all in
// coefficient form. Input rows may be lazily reduced ([0, 2q); e.g. straight
// out of InverseLazy); outputs are fully reduced. Safe for concurrent use.
func (d *ModDowner) ModDown(xQ, xP, out [][]uint64) {
	// INVARIANT: ModDown operands are sized by the key switcher from the same chain.
	// A panic here is a repo-internal bug, never a reaction to caller input —
	// malformed inputs are rejected with typed errors at the public boundary.
	if len(xQ) != len(d.Q) || len(xP) != len(d.P) || len(out) != len(d.Q) {
		panic("rns: ModDown limb mismatch")
	}
	n := len(xQ[0])
	tmp, rp := d.scratchRows(n)
	defer rp.put(tmp)
	d.conv.Convert(xP, tmp.rows)
	ring.ForEachLimbRange(len(d.Q), d.Workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			m := d.Q[i]
			inv, invSho := d.pInvMod[i], d.pInvModSho[i]
			// Fused lazy subtract-multiply: xQ rows < 2q and the converted
			// rows < q, within ShoupMulSubVec's < 2q contract; the result
			// re-enters the fully reduced domain.
			m.ShoupMulSubVec(out[i][:n], xQ[i][:n], tmp.rows[i], inv, invSho)
		}
	})
}

// Rescaler divides a ciphertext polynomial by its top limb prime, the CKKS
// rescale operation that keeps the scale bounded after multiplications.
type Rescaler struct {
	Moduli []ring.Modulus

	// Workers caps the goroutine fan-out of Rescale (ring.Workers
	// convention; 1 = serial). Set once before first use.
	Workers int

	// qlInv[level][i] = q_level^-1 mod q_i for i < level
	qlInv    [][]uint64
	qlInvSho [][]uint64
}

// NewRescaler precomputes the per-level inverse tables for the given chain.
func NewRescaler(moduli []ring.Modulus) *Rescaler {
	r := &Rescaler{
		Moduli:   moduli,
		Workers:  1,
		qlInv:    make([][]uint64, len(moduli)),
		qlInvSho: make([][]uint64, len(moduli)),
	}
	for l := 1; l < len(moduli); l++ {
		r.qlInv[l] = make([]uint64, l)
		r.qlInvSho[l] = make([]uint64, l)
		ql := moduli[l].Q
		for i := 0; i < l; i++ {
			r.qlInv[l][i] = moduli[i].InvMod(ql % moduli[i].Q)
			r.qlInvSho[l][i] = moduli[i].ShoupPrecomp(r.qlInv[l][i])
		}
	}
	return r
}

// Rescale drops the last limb of x (level = len(x)-1) writing (x - x_l)/q_l
// into out, which must have one fewer limb. Inputs in coefficient form; rows
// may be lazily reduced ([0, 2q)); outputs are fully reduced. Safe for
// concurrent use.
func (r *Rescaler) Rescale(x, out [][]uint64) {
	l := len(x) - 1
	// INVARIANT: Rescale at level 0 is rejected with ErrLevelExhausted at the evaluator boundary.
	// A panic here is a repo-internal bug, never a reaction to caller input —
	// malformed inputs are rejected with typed errors at the public boundary.
	if l < 1 || len(out) != l {
		panic(fmt.Sprintf("rns: Rescale needs >=2 limbs and out of %d rows", l))
	}
	n := len(x[0])
	xl := x[l][:n]
	// The dropped limb's rows are lazy residues of q_l; that bound and each
	// target modulus decide per limb whether the 52-bit kernel takes the step.
	xlBound := 2 * r.Moduli[l].Q
	ring.ForEachLimbRange(l, r.Workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			// Reduce the top-limb residue into q_i before subtracting;
			// centering the residue halves the rounding error but the plain
			// variant keeps the error below q_l which the CKKS scale absorbs.
			r.Moduli[i].ShoupMulSubForeignVec(out[i][:n], x[i][:n], xl, xlBound, r.qlInv[l][i], r.qlInvSho[l][i])
		}
	})
}
