package ring

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Packed rows: the layout evaluation keys are held in. A key is most of what
// a context keeps resident and KeyMult streams it cold, so its residues are
// stored at the width of their prime — b bits each, back to back, little
// endian — and widened in registers by the multiply-accumulate that reads
// them (MulAccPackedRows), instead of each sitting in an 8-byte word.
//
// Residue k of a row occupies bits [k·b, (k+1)·b), so it lies inside the 8
// bytes that start at byte ⌊k·b/8⌋ as long as b + 7 <= 64: a residue is one
// unaligned little-endian load, a shift by k·b mod 8 and a mask. Moduli up
// to packMaxBits wide are packed at their own width; wider ones (the 60-bit
// KLSS chain) at 64 bits, the unpacked layout. Eight residues span exactly b
// bytes, which is the avx512ifma kernel's step: one 64-byte VPERMB pulls a
// group's eight residues into eight lanes, so a row carries 64 − b bytes of
// padding past its last residue for that load (more than the Go loop's one
// 8-byte load needs at any width).

// packMaxBits is the widest residue packed at its own width.
const packMaxBits = 57

// PackedBits returns the bits a residue mod q takes in a packed row: the
// width of q−1, the largest residue, up to packMaxBits; 64 above.
func PackedBits(q uint64) int {
	if b := bits.Len64(q - 1); b <= packMaxBits {
		return b
	}
	return 64
}

// PackedBits returns the bits a residue of m takes in a packed row.
func (m Modulus) PackedBits() int { return PackedBits(m.Q) }

// validPackedBits reports whether b is a width a packed row can have.
func validPackedBits(b int) bool { return b >= 1 && b <= packMaxBits || b == 64 }

// PackedRowLen returns the bytes of a packed row of n residues at b bits:
// the residues, then the padding the widening loads read past them.
func PackedRowLen(n, b int) int { return (n*b+7)/8 + 64 - b }

// PackRow writes src's residues, each below 2^b, into dst, a row of
// PackedRowLen(len(src), b) bytes. It fills a word at a time, so no store
// waits on the one before it, and every shift count is masked below 64, so
// none takes Go's over-wide-shift fixup.
func PackRow(dst []byte, src []uint64, b int) {
	_ = dst[PackedRowLen(len(src), b)-1]
	var acc uint64 // the low `have` bits are pending
	have, p := 0, 0
	for _, v := range src {
		acc |= v << (have & 63)
		if have += b; have >= 64 {
			binary.LittleEndian.PutUint64(dst[p:p+8], acc)
			p += 8
			have -= 64
			acc = 0 // v's bits past the word: none at have = 0
			if have != 0 {
				acc = v >> ((b - have) & 63)
			}
		}
	}
	for ; have > 0; have -= 8 {
		dst[p] = byte(acc)
		acc >>= 8
		p++
	}
}

// UnpackRow sets dst[k] to residue k of the packed row src at b bits.
func UnpackRow(dst []uint64, src []byte, b int) {
	mask := uint64(1)<<b - 1 // all ones at b = 64
	for k := range dst {
		o := k * b
		dst[k] = binary.LittleEndian.Uint64(src[o>>3:o>>3+8]) >> (o & 7) & mask
	}
}

// PackedPoly is a polynomial held in packed rows: Rows[i] holds its N
// residues mod q_i at Bits[i] bits each. It is read-only once packed (the
// rows share one allocation).
type PackedPoly struct {
	Rows [][]byte
	Bits []int
	n    int
}

// Pack returns p (a polynomial over r, every residue fully reduced) in
// packed rows, each at its modulus' PackedBits.
func (r *Ring) Pack(p Poly) PackedPoly {
	r.checkShape(p)
	pp := PackedPoly{Rows: make([][]byte, len(r.Moduli)), Bits: make([]int, len(r.Moduli)), n: r.N}
	total := 0
	for i, m := range r.Moduli {
		pp.Bits[i] = m.PackedBits()
		total += PackedRowLen(r.N, pp.Bits[i])
	}
	backing := make([]byte, total)
	for i, b := range pp.Bits {
		l := PackedRowLen(r.N, b)
		pp.Rows[i], backing = backing[:l:l], backing[l:]
		PackRow(pp.Rows[i], p.Coeffs[i], b)
	}
	return pp
}

// Unpack returns p in the 8-byte layout.
func (p PackedPoly) Unpack() Poly {
	out := NewPoly(p.n, len(p.Rows))
	for i, row := range p.Rows {
		UnpackRow(out.Coeffs[i], row, p.Bits[i])
	}
	return out
}

// MulAccPackedRows is MulAccRows with each ys[j] a packed row of len(dst)
// residues at b bits (PackRow): the same sum, bit for bit, with the key
// operand widened in registers. On the 52-bit datapath that is a VPERMB, a
// VPMULTISHIFTQB and a mask per eight residues inside mac52's loop
// (packLayout); in the Go loop it shares with MulAccRows, a little-endian
// load, a shift and a mask per residue (one load per word at 64 bits).
func (m Modulus) MulAccPackedRows(dst []uint64, xs [][]uint64, ys [][]byte, b int) {
	if contractChecks {
		checkPackedRows(m, len(dst), ys, b)
	}
	if m.useMAC52(len(dst), m.Q, len(xs)) {
		mac52Packed(m, dst, xs, ys, b, 0)
		return
	}
	mulAccRowsGo(m, dst, xs, nil, nil, ys, b)
}

// checkPackedRows panics unless every row is a packed row of n residues of m
// at b bits: b a packed width no narrower than m's, and the row as long as
// the widening loads read.
func checkPackedRows(m Modulus, n int, ys [][]byte, b int) {
	if !validPackedBits(b) || b < m.PackedBits() {
		panic(fmt.Sprintf("ring: %d bits is not a packed width for residues mod %d (%d bits)", b, m.Q, m.PackedBits()))
	}
	want := PackedRowLen(n, b)
	for j, y := range ys {
		if len(y) < want {
			panic(fmt.Sprintf("ring: packed row %d is %d bytes, want %d: %d residues at %d bits and the kernel's over-read padding", j, len(y), want, n, b))
		}
	}
}

// packLayout is how the avx512ifma kernel widens eight residues of one packed
// width b, which span b bytes: the VPERMB table moving the eight bytes from
// residue i's first byte into lane i, the VPMULTISHIFTQB control bytes that
// shift each lane right to its residue's first bit, and the b-bit mask.
type packLayout struct {
	perm  [64]byte
	shift [64]byte
	mask  uint64
	span  uint64 // b: the bytes between one group of eight and the next
}

// packLayouts holds the layout of every packed width, indexed by b.
var packLayouts = func() (t [65]packLayout) {
	for b := 1; b <= 64; b++ {
		if !validPackedBits(b) {
			continue
		}
		l := &t[b]
		for i := range 8 {
			o := i * b
			for k := range 8 {
				l.perm[8*i+k] = byte(o>>3 + k)
				l.shift[8*i+k] = byte(o&7 + 8*k)
			}
		}
		l.mask, l.span = uint64(1)<<b-1, uint64(b)
	}
	return t
}()
