package ckks

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"slices"
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

func TestPublicKeyRoundTrip(t *testing.T) {
	tc := newTestContext(t)
	back, rest, err := ParsePublicKey(tc.pk.AppendBinary(nil), tc.params)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after the public key", len(rest))
	}
	if !back.B.Equal(tc.pk.B) || !back.A.Equal(tc.pk.A) {
		t.Fatal("public key round trip lost data")
	}
	// Encrypting under the deserialised key must still decrypt correctly.
	enc2 := NewEncryptor(tc.params, back)
	v := randomValues(tc.params.Slots(), 53)
	pt, _ := tc.enc.Encode(v)
	ct, err := enc2.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxErr(tc.enc.Decode(tc.decr.Decrypt(ct)), v); e > tolerance {
		t.Fatalf("encryption under restored key error %g", e)
	}
}

func TestSwitchingKeyRoundTrip(t *testing.T) {
	tc := newTestContext(t)
	for _, method := range []KeySwitchMethod{Hybrid, KLSS} {
		rlk, err := tc.keys.RelinKey(method)
		if err != nil {
			t.Fatal(err)
		}
		back, rest, err := ParseSwitchingKey(rlk.AppendBinary(nil), tc.params)
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if len(rest) != 0 {
			t.Fatalf("%v: %d bytes left after the key", method, len(rest))
		}
		if back.Method != method || len(back.B) != len(rlk.B) {
			t.Fatal("switching key metadata lost")
		}
		for j := range rlk.B {
			if !back.B[j].Equal(rlk.B[j]) || !back.A[j].Equal(rlk.A[j]) {
				t.Fatalf("group %d lost", j)
			}
		}
		// The restored key must still relinearise correctly.
		keys2 := NewEvaluationKeySet()
		keys2.Relin[method] = back
		ev, err := NewEvaluatorOptions(tc.params, keys2, EvaluatorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		v := randomValues(tc.params.Slots(), 54)
		pt, _ := tc.enc.Encode(v)
		ct, _ := tc.encr.Encrypt(pt)
		prod, err := ev.MulRelinWith(ct, ct, method)
		if err != nil {
			t.Fatal(err)
		}
		prod, _ = ev.Rescale(prod)
		want := make([]complex128, len(v))
		for i := range v {
			want[i] = v[i] * v[i]
		}
		if e := maxErr(tc.enc.Decode(tc.decr.Decrypt(prod)), want); e > tolerance {
			t.Fatalf("%v: restored relin key gives error %g", method, e)
		}
	}
}

func TestReadGarbage(t *testing.T) {
	tc := newTestContext(t)
	if _, err := ReadCiphertext(strings.NewReader("zz"), tc.params); err == nil {
		t.Error("garbage accepted")
	}
	if _, _, err := ParseSwitchingKey(nil, tc.params); err == nil {
		t.Error("empty input accepted")
	}
}

// TestKeyPayloadParse: the key decoders read back exactly what the appenders
// wrote — secret key, public key and evaluation-key set in sequence,
// each returning what follows it — and reject every truncation with an error,
// not a panic.
func TestKeyPayloadParse(t *testing.T) {
	tc := newTestContext(t)
	payload := tc.sk.AppendBinary(nil)
	skLen := len(payload)
	payload = tc.pk.AppendBinary(payload)
	pkLen := len(payload) - skLen
	payload = append(tc.keys.AppendBinary(payload), 0xAA) // one trailing byte the parsers must hand back

	sk, rest, err := ParseSecretKey(payload, tc.params)
	if err != nil {
		t.Fatal(err)
	}
	if !sk.QP.Equal(tc.sk.QP) || !sk.QT.Equal(tc.sk.QT) {
		t.Fatal("secret key round trip lost data")
	}
	pk, rest, err := ParsePublicKey(rest, tc.params)
	if err != nil {
		t.Fatal(err)
	}
	if !pk.B.Equal(tc.pk.B) || !pk.A.Equal(tc.pk.A) {
		t.Fatal("public key round trip lost data")
	}
	keys, rest, err := ParseEvaluationKeySet(rest, tc.params)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 1 || rest[0] != 0xAA {
		t.Fatalf("%d bytes left after the key set, want the 1 trailing byte", len(rest))
	}
	if !bytes.Equal(keys.AppendBinary(nil), payload[skLen+pkLen:len(payload)-1]) {
		t.Fatal("evaluation-key set round trip is not byte-identical")
	}

	evk := payload[skLen+pkLen : len(payload)-1]
	for _, n := range []int{0, 1, 2, 5, 6, 13, 14, 20, len(evk) / 3, len(evk) - 1} {
		if _, _, err := ParseEvaluationKeySet(evk[:n], tc.params); err == nil {
			t.Errorf("key set truncated to %d of %d bytes parsed", n, len(evk))
		}
	}
	for _, n := range []int{0, 1, 5, skLen - 1} {
		if _, _, err := ParseSecretKey(payload[:n], tc.params); err == nil {
			t.Errorf("secret key truncated to %d of %d bytes parsed", n, skLen)
		}
	}
	for _, n := range []int{0, 2, 11, pkLen / 2, pkLen - 1} {
		if _, _, err := ParsePublicKey(payload[skLen:skLen+n], tc.params); err == nil {
			t.Errorf("public key truncated to %d of %d bytes parsed", n, pkLen)
		}
	}
}

// TestKeyParsersCheckBothHalves: a key pair with either half at another ring
// degree is refused at parse time. The key switch reads both halves' rows at
// the ring degree, so a short half that parsed would panic there instead.
func TestKeyParsersCheckBothHalves(t *testing.T) {
	tc := newTestContext(t)
	short := func(p ring.Poly) ring.Poly {
		s := ring.NewPoly(p.N()/2, p.Limbs())
		for i := range s.Coeffs {
			copy(s.Coeffs[i], p.Coeffs[i])
		}
		return s
	}
	parsePK := func(b []byte) error { _, _, err := ParsePublicKey(b, tc.params); return err }
	parseSWK := func(b []byte) error { _, _, err := ParseSwitchingKey(b, tc.params); return err }
	type keyCase struct {
		name  string
		wire  []byte
		parse func([]byte) error
	}
	cases := []keyCase{
		{"public key, short A", (&PublicKey{B: tc.pk.B, A: short(tc.pk.A)}).AppendBinary(nil), parsePK},
		{"public key, short B", (&PublicKey{B: short(tc.pk.B), A: tc.pk.A}).AppendBinary(nil), parsePK},
	}
	for _, m := range []KeySwitchMethod{Hybrid, KLSS} {
		rlk, err := tc.keys.RelinKey(m)
		if err != nil {
			t.Fatal(err)
		}
		last := len(rlk.B) - 1
		shortA := &SwitchingKey{Method: m, B: rlk.B, A: append(slices.Clone(rlk.A[:last]), short(rlk.A[last]))}
		shortB := &SwitchingKey{Method: m, B: append(slices.Clone(rlk.B[:last]), short(rlk.B[last])), A: rlk.A}
		cases = append(cases,
			keyCase{m.String() + " switching key, short A", shortA.AppendBinary(nil), parseSWK},
			keyCase{m.String() + " switching key, short B", shortB.AppendBinary(nil), parseSWK})
	}
	for _, c := range cases {
		if err := c.parse(c.wire); err == nil {
			t.Errorf("%s: parsed", c.name)
		}
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
