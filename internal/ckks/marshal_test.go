package ckks

import (
	"bytes"
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
// with hand-built rows (Backing == nil, the foreign-poly shape writePoly must
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
	var buf bytes.Buffer
	if err := tc.pk.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	back, rest, err := ParsePublicKey(buf.Bytes(), tc.params)
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
		var buf bytes.Buffer
		if err := rlk.Serialize(&buf); err != nil {
			t.Fatal(err)
		}
		back, rest, err := ParseSwitchingKey(buf.Bytes(), tc.params)
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

// TestKeyPayloadParse: the in-memory key decoders read back exactly what the
// writers wrote — secret key, public key and evaluation-key set in sequence,
// each returning what follows it — and reject every truncation with an error,
// not a panic.
func TestKeyPayloadParse(t *testing.T) {
	tc := newTestContext(t)
	var buf bytes.Buffer
	if err := tc.sk.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	skLen := buf.Len()
	if err := tc.pk.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	pkLen := buf.Len() - skLen
	if err := tc.keys.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	payload := append(buf.Bytes(), 0xAA) // one trailing byte the parsers must hand back

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
	var again bytes.Buffer
	if err := keys.Serialize(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), payload[skLen+pkLen:len(payload)-1]) {
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
