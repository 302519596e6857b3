package ckks

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"strings"
	"testing"

	"github.com/fastfhe/fast/internal/ring"
)

func TestCiphertextRoundTrip(t *testing.T) {
	tc := newTestContext(t)
	v := randomValues(tc.params.Slots(), 50)
	pt, _ := tc.enc.Encode(v)
	ct, _ := tc.encr.Encrypt(pt)

	var buf bytes.Buffer
	if err := ct.Serialize(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	back, err := ReadCiphertext(&buf, tc.params)
	if err != nil {
		t.Fatalf("ReadCiphertext: %v", err)
	}
	if back.Level != ct.Level || back.Scale != ct.Scale {
		t.Fatal("metadata lost")
	}
	if !back.C0.Equal(ct.C0) || !back.C1.Equal(ct.C1) {
		t.Fatal("coefficients lost")
	}
	// And it still decrypts.
	if e := maxErr(tc.enc.Decode(tc.decr.Decrypt(back)), v); e > tolerance {
		t.Fatalf("deserialised ciphertext error %g", e)
	}
}

// TestSerializeArenaAndForeignPolysMatch pins the single-pass arena encoding
// against the row-wise fallback: a ciphertext whose polynomials carry a
// contiguous Backing must serialize byte-identically to the same ciphertext
// with hand-built rows (Backing == nil, the foreign-poly shape appendPoly must
// still accept).
func TestSerializeArenaAndForeignPolysMatch(t *testing.T) {
	tc := newTestContext(t)
	v := randomValues(tc.params.Slots(), 51)
	pt, _ := tc.enc.Encode(v)
	ct, _ := tc.encr.Encrypt(pt)

	strip := func(p ring.Poly) ring.Poly {
		rows := make([][]uint64, p.Limbs())
		for i := range rows {
			rows[i] = append([]uint64(nil), p.Coeffs[i]...)
		}
		return ring.Poly{Coeffs: rows} // no Backing: forces the row-wise path
	}
	foreign := &Ciphertext{C0: strip(ct.C0), C1: strip(ct.C1), Level: ct.Level, Scale: ct.Scale}

	var arenaBuf, rowBuf bytes.Buffer
	if err := ct.Serialize(&arenaBuf); err != nil {
		t.Fatalf("arena serialize: %v", err)
	}
	if err := foreign.Serialize(&rowBuf); err != nil {
		t.Fatalf("foreign serialize: %v", err)
	}
	if !bytes.Equal(arenaBuf.Bytes(), rowBuf.Bytes()) {
		t.Fatal("arena fast path and row-wise fallback produce different wire bytes")
	}
	back, err := ReadCiphertext(&arenaBuf, tc.params)
	if err != nil {
		t.Fatalf("ReadCiphertext: %v", err)
	}
	if len(back.C0.Backing) != back.C0.Limbs()*back.C0.N() {
		t.Fatal("deserialized poly is not arena-backed")
	}
}

func TestCiphertextRejectsCorruption(t *testing.T) {
	tc := newTestContext(t)
	v := randomValues(tc.params.Slots(), 51)
	pt, _ := tc.enc.Encode(v)
	ct, _ := tc.encr.Encrypt(pt)

	var buf bytes.Buffer
	ct.Serialize(&buf)
	raw := buf.Bytes()

	// Wrong tag.
	bad := append([]byte{}, raw...)
	bad[0] = 0x7f
	if _, err := ReadCiphertext(bytes.NewReader(bad), tc.params); err == nil {
		t.Error("wrong tag accepted")
	}
	// Wrong version.
	bad = append([]byte{}, raw...)
	bad[1] = 99
	if _, err := ReadCiphertext(bytes.NewReader(bad), tc.params); err == nil {
		t.Error("wrong version accepted")
	}
	// Truncated.
	if _, err := ReadCiphertext(bytes.NewReader(raw[:len(raw)/2]), tc.params); err == nil {
		t.Error("truncated stream accepted")
	}
	// Out-of-range coefficient: flip a coefficient byte region to all 0xff.
	bad = append([]byte{}, raw...)
	for i := len(bad) - 16; i < len(bad)-8; i++ {
		bad[i] = 0xff
	}
	if _, err := ReadCiphertext(bytes.NewReader(bad), tc.params); err == nil {
		t.Error("out-of-range coefficient accepted")
	}
}

func TestReadGarbage(t *testing.T) {
	tc := newTestContext(t)
	if _, err := ReadCiphertext(strings.NewReader("zz"), tc.params); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadCiphertextBytes(nil, tc.params); err == nil {
		t.Error("empty input accepted")
	}
}

// TestReadCiphertextStream: ciphertexts written back to back into one stream
// come back one per ReadCiphertext, byte-identical, and each read stops at
// the end of its ciphertext: the byte after the last one stays in the reader.
func TestReadCiphertextStream(t *testing.T) {
	tc := newTestContext(t)
	var cts []*Ciphertext
	for _, level := range []int{tc.params.MaxLevel(), 1} {
		pt, err := tc.enc.EncodeAtLevel(randomValues(tc.params.Slots(), 55), level, tc.params.Scale())
		if err != nil {
			t.Fatal(err)
		}
		ct, err := tc.encr.Encrypt(pt)
		if err != nil {
			t.Fatal(err)
		}
		cts = append(cts, ct)
	}
	wire := append(cts[1].AppendBinary(cts[0].AppendBinary(nil)), 0xAA)
	r := bytes.NewReader(wire)
	for i, want := range cts {
		got, err := ReadCiphertext(r, tc.params)
		if err != nil {
			t.Fatalf("ciphertext %d: %v", i, err)
		}
		if !bytes.Equal(got.AppendBinary(nil), want.AppendBinary(nil)) {
			t.Fatalf("ciphertext %d did not come back byte-identical", i)
		}
	}
	if rest, _ := io.ReadAll(r); !bytes.Equal(rest, []byte{0xAA}) {
		t.Fatalf("reader left %x after the two ciphertexts, want aa", rest)
	}
}

// TestReadCiphertextRefusesShapeFromHead: a head whose poly shape is
// implausible, or one the parameters cannot hold, is refused from its bytes
// alone: nothing past the head is read, and less than one coefficient row is
// allocated.
func TestReadCiphertextRefusesShapeFromHead(t *testing.T) {
	tc := newTestContext(t)
	n, limbs := tc.params.N(), tc.params.MaxLevel()+1
	for _, c := range []struct {
		name     string
		limbs, n int
	}{
		{"no limbs", 0, n},
		{"implausible limbs", 129, n},
		{"more limbs than the chain", limbs + 1, n},
		{"wrong degree", limbs, 2 * n},
	} {
		t.Run(c.name, func(t *testing.T) {
			head := append(appendLevelScale(nil, tagCiphertext, c.limbs-1, tc.params.Scale()), tagPoly, wireVersion)
			head = binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(head, uint32(c.limbs)), uint32(c.n))
			r := io.MultiReader(bytes.NewReader(head), pastHead{t})
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := ReadCiphertext(r, tc.params)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("head accepted")
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(8*n) {
				t.Fatalf("refusing the head allocated %d bytes, want under one %d-byte row", got, 8*n)
			}
		})
	}
}

// pastHead fails the test if a reader reads beyond the ciphertext head.
type pastHead struct{ t *testing.T }

func (p pastHead) Read([]byte) (int, error) {
	p.t.Error("read past the ciphertext head")
	return 0, io.EOF
}
