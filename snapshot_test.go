package fast_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	fast "github.com/fastfhe/fast"
	"github.com/fastfhe/fast/internal/ckks"
	"github.com/fastfhe/fast/internal/ring"
)

func snapshotTestConfig() fast.ContextConfig {
	return fast.ContextConfig{
		LogN:        9,
		Levels:      3,
		LogScale:    36,
		Rotations:   []int{1, -1, 4},
		Conjugation: true,
		EnableKLSS:  true,
		Seed:        7,
	}
}

// snapshotBytes builds a context, captures a reference ciphertext + decrypt,
// and returns the serialized snapshot — the shared fixture of these tests.
func snapshotBytes(t testing.TB, cfg fast.ContextConfig, meta fast.SessionMeta) (*fast.Context, []byte) {
	t.Helper()
	ctx, err := fast.NewContext(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ctx.WriteSessionSnapshot(&buf, meta); err != nil {
		t.Fatal(err)
	}
	return ctx, buf.Bytes()
}

// TestSessionSnapshotRoundTrip exercises the full persistence contract for
// BOTH key-switching backends: a restored context must decrypt pre-snapshot
// ciphertexts bit-identically, evaluate with every persisted key class
// (relin, rotation, conjugation — hybrid and KLSS), and carry the metadata
// through unchanged.
func TestSessionSnapshotRoundTrip(t *testing.T) {
	for _, method := range []fast.Method{fast.Hybrid, fast.KLSS} {
		t.Run(method.String(), func(t *testing.T) {
			cfg := snapshotTestConfig()
			meta := fast.SessionMeta{ID: "s1", CreatedUnixNano: 12345, Restores: 2}
			ctx, snap := snapshotBytes(t, cfg, meta)

			vals := make([]complex128, ctx.Slots())
			for i := range vals {
				vals[i] = complex(0.25*float64(i%5), -0.125*float64(i%3))
			}
			ct, err := ctx.Encrypt(vals)
			if err != nil {
				t.Fatal(err)
			}
			var ctWire bytes.Buffer
			if err := ct.Serialize(&ctWire); err != nil {
				t.Fatal(err)
			}
			ref := ctx.Decrypt(ct)

			restored, gotMeta, err := fast.ReadSessionSnapshot(bytes.NewReader(snap))
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			if gotMeta != meta {
				t.Fatalf("meta round-trip: got %+v, want %+v", gotMeta, meta)
			}
			rct, err := restored.ReadCiphertext(bytes.NewReader(ctWire.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			got := restored.Decrypt(rct)
			for i := range ref {
				if got[i] != ref[i] { // bit-identical, not approximately equal
					t.Fatalf("slot %d: restored decrypt %v != reference %v", i, got[i], ref[i])
				}
			}

			// Every persisted key class must function on the restored context
			// under the method being tested.
			prod, err := restored.Mul(rct, rct, fast.WithMethod(method))
			if err != nil {
				t.Fatalf("%s Mul on restored context: %v", method, err)
			}
			if _, err := restored.Rotate(prod, 1, fast.WithMethod(method)); err != nil {
				t.Fatalf("%s Rotate on restored context: %v", method, err)
			}
			if _, err := restored.Conjugate(prod, fast.WithMethod(method)); err != nil {
				t.Fatalf("%s Conjugate on restored context: %v", method, err)
			}
		})
	}
}

// TestSessionSnapshotRestoreReseedsEncryptor: two restores at different
// Restores epochs must draw different encryption randomness (identical
// plaintext, different ciphertext bytes) — a restored daemon replaying its
// pre-crash randomness stream under the same public key would leak plaintext
// differences.
func TestSessionSnapshotRestoreReseedsEncryptor(t *testing.T) {
	_, snap := snapshotBytes(t, snapshotTestConfig(), fast.SessionMeta{ID: "s1"})
	encOnce := func(restores uint64) []byte {
		s, err := fast.DecodeSessionSnapshot(snap)
		if err != nil {
			t.Fatal(err)
		}
		s.Meta.Restores = restores
		ctx, err := s.Restore()
		if err != nil {
			t.Fatal(err)
		}
		ct, err := ctx.Encrypt(make([]complex128, ctx.Slots()))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ct.Serialize(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if bytes.Equal(encOnce(1), encOnce(2)) {
		t.Fatal("different restore epochs produced identical encryption randomness")
	}
	if !bytes.Equal(encOnce(3), encOnce(3)) {
		t.Fatal("same restore epoch is expected to be deterministic")
	}
}

// TestSessionSnapshotRejectsConfigMutation: options that would change the
// parameter description the keys were generated for must be refused.
func TestSessionSnapshotRejectsConfigMutation(t *testing.T) {
	_, snap := snapshotBytes(t, snapshotTestConfig(), fast.SessionMeta{})
	s, err := fast.DecodeSessionSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Restore(fast.WithParallelism(4)); !errors.Is(err, fast.ErrInvalidParameters) {
		t.Fatalf("WithParallelism on restore: err %v, want ErrInvalidParameters", err)
	}
	// Non-mutating options stay legal.
	if _, err := s.Restore(fast.WithObserver(fast.NewObserver())); err != nil {
		t.Fatalf("WithObserver on restore: %v", err)
	}
}

// TestSessionSnapshotCorruption is the integrity table test: truncation at
// every structural boundary and bit flips in every region must surface as
// ErrCorruptSnapshot — never a panic, never a context.
func TestSessionSnapshotCorruption(t *testing.T) {
	_, snap := snapshotBytes(t, snapshotTestConfig(), fast.SessionMeta{ID: "s1"})
	n := len(snap)
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"truncated-magic", func(b []byte) []byte { return b[:4] }},
		{"truncated-header", func(b []byte) []byte { return b[:14] }},
		{"truncated-keys", func(b []byte) []byte { return b[:n/2] }},
		{"truncated-checksum", func(b []byte) []byte { return b[:n-16] }},
		{"flip-magic", flipByte(0)},
		{"flip-header-len", flipByte(9)},
		{"flip-header", flipByte(20)},
		{"flip-keys", flipByte(n / 2)},
		{"flip-last-key-byte", flipByte(n - 33)},
		{"flip-checksum", flipByte(n - 1)},
		{"appended-garbage", func(b []byte) []byte { return append(b, 0xAA, 0xBB) }},
		{"doubled", func(b []byte) []byte { return append(b, b...) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mutated := tc.mutate(append([]byte(nil), snap...))
			s, err := fast.DecodeSessionSnapshot(mutated)
			if err == nil {
				// The decode layer can only be passed by a valid checksum;
				// nothing here should reach Restore.
				if _, rerr := s.Restore(); rerr == nil {
					t.Fatal("corrupt snapshot restored successfully")
				} else if !errors.Is(rerr, fast.ErrCorruptSnapshot) {
					t.Fatalf("restore error %v does not wrap ErrCorruptSnapshot", rerr)
				}
				return
			}
			if !errors.Is(err, fast.ErrCorruptSnapshot) {
				t.Fatalf("decode error %v does not wrap ErrCorruptSnapshot", err)
			}
		})
	}
}

func flipByte(i int) func([]byte) []byte {
	return func(b []byte) []byte {
		b[i] ^= 0x40
		return b
	}
}

// FuzzSessionSnapshot hardens DecodeSessionSnapshot+Restore against arbitrary
// input: any mutation of a valid snapshot (or raw garbage) must either be
// rejected with a typed error or decode losslessly — never panic, and never
// restore from bytes that differ from a checksum-valid snapshot. A mutation
// practically never carries a valid checksum, so each input is also tried as
// the key payload of a re-signed snapshot, which the key parsers must refuse
// as corrupt or restore.
func FuzzSessionSnapshot(f *testing.F) {
	cfg := fast.ContextConfig{LogN: 4, Levels: 1, LogScale: 20, Seed: 3}
	ctx, err := fast.NewContext(cfg)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ctx.WriteSessionSnapshot(&buf, fast.SessionMeta{ID: "f"}); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("FASTSNP\x01garbage"))
	f.Add(valid[:len(valid)/2])
	mut := append([]byte(nil), valid...)
	mut[len(mut)/3] ^= 1
	f.Add(mut)
	keys := valid[keysAt(valid) : len(valid)-sha256.Size]
	f.Add(keys)
	f.Add(keys[:len(keys)-1])

	f.Fuzz(func(t *testing.T, data []byte) {
		// data as a key payload, re-signed so it reaches the key parsers: the
		// restore succeeds or is refused as corrupt.
		s, err := fast.DecodeSessionSnapshot(spliceKeys(valid, func([]byte) []byte { return data }))
		if err != nil {
			t.Fatalf("re-signed snapshot refused at decode: %v", err)
		}
		if _, err := s.Restore(); err != nil && !errors.Is(err, fast.ErrCorruptSnapshot) {
			t.Fatalf("key payload refused without ErrCorruptSnapshot: %v", err)
		}

		// data as a whole snapshot.
		s, err = fast.DecodeSessionSnapshot(data)
		if err != nil {
			if !errors.Is(err, fast.ErrCorruptSnapshot) {
				t.Fatalf("decode error %v does not wrap ErrCorruptSnapshot", err)
			}
			return
		}
		// Checksum passed: the input must BE a well-formed snapshot; restoring
		// may still fail (typed), but must not panic.
		if _, err := s.Restore(); err != nil {
			var ok bool
			for _, sentinel := range []error{fast.ErrCorruptSnapshot, fast.ErrInvalidParameters, fast.ErrMethodUnavailable} {
				if errors.Is(err, sentinel) {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("restore failed without a typed error: %v", err)
			}
		}
	})
}

// ExampleContext_WriteSessionSnapshot documents the durability API: snapshot
// a session, restore it elsewhere, decrypt bit-identically.
func ExampleContext_WriteSessionSnapshot() {
	ctx, _ := fast.NewContext(fast.ContextConfig{LogN: 9, Levels: 2, LogScale: 36, Seed: 1})
	ct, _ := ctx.Encrypt([]complex128{1 + 2i})
	var wire, snap bytes.Buffer
	_ = ct.Serialize(&wire)
	_ = ctx.WriteSessionSnapshot(&snap, fast.SessionMeta{ID: "s1"})

	restored, meta, _ := fast.ReadSessionSnapshot(&snap)
	rct, _ := restored.ReadCiphertext(&wire)
	vals := restored.Decrypt(rct)
	fmt.Printf("%s: %.0f%+.0fi\n", meta.ID, real(vals[0]), imag(vals[0]))
	// Output: s1: 1+2i
}

// spliceHeader rewrites a well-formed snapshot into the one a build whose
// header carried one more JSON member would have written for the same
// session: splice names where in the header the member goes and what it is;
// hdrLen and the trailing SHA-256 are recomputed. Nothing else in the file
// moves.
func spliceHeader(t testing.TB, snap []byte, splice func(hdr []byte) (at int, member string)) []byte {
	t.Helper()
	const hdrStart = 8 + 4 // magic, hdrLen
	hdrLen := int(binary.LittleEndian.Uint32(snap[8:hdrStart]))
	at, member := splice(snap[hdrStart : hdrStart+hdrLen])
	out := append([]byte(nil), snap[:hdrStart+at]...)
	out = append(out, member...)
	out = append(out, snap[hdrStart+at:len(snap)-sha256.Size]...)
	binary.LittleEndian.PutUint32(out[8:hdrStart], uint32(hdrLen+len(member)))
	return resign(out)
}

// resign appends body's SHA-256: the trailer a snapshot writer puts after it.
func resign(body []byte) []byte {
	sum := sha256.Sum256(body)
	return append(body, sum[:]...)
}

// keysAt is the offset of a well-formed snapshot's key payload.
func keysAt(snap []byte) int {
	return 8 + 4 + int(binary.LittleEndian.Uint32(snap[8:])) + 8 // magic, hdrLen, header, keyLen
}

// spliceKeys rewrites a well-formed snapshot's key payload with edit: keyLen
// and the trailing SHA-256 are recomputed, so the result passes the checksum
// and reaches the key parsers.
func spliceKeys(snap []byte, edit func(keys []byte) []byte) []byte {
	at := keysAt(snap)
	keys := edit(bytes.Clone(snap[at : len(snap)-sha256.Size]))
	out := binary.LittleEndian.AppendUint64(bytes.Clone(snap[:at-8]), uint64(len(keys)))
	return resign(append(out, keys...))
}

// TestSessionSnapshotCorruptKeys: a checksum-valid snapshot whose key
// payload does not parse is a corrupt snapshot. Restore must say so with
// ErrCorruptSnapshot, the error a daemon answers by tombstoning the file
// instead of parsing it again on every retry.
func TestSessionSnapshotCorruptKeys(t *testing.T) {
	_, snap := snapshotBytes(t, snapshotTestConfig(), fast.SessionMeta{ID: "s1"})
	// The first switching key's group count sits after the secret key (tag,
	// length, N bytes), the public key (tag, two polys of limbs×n words) and
	// the key set's tag, method count, method, Galois count, and the key's own
	// tag and method.
	zeroGroups := func(k []byte) []byte {
		at := 6 + int(binary.LittleEndian.Uint32(k[2:]))
		limbs, n := int(binary.LittleEndian.Uint32(k[at+4:])), int(binary.LittleEndian.Uint32(k[at+8:]))
		at += 2 + 2*(10+8*limbs*n) + 2 + 4 + 8 + 2 + 4
		binary.LittleEndian.PutUint32(k[at:], 0)
		return k
	}
	for _, tc := range []struct {
		name, cause string
		edit        func([]byte) []byte
	}{
		{"truncated", "unexpected EOF", func(k []byte) []byte { return k[:len(k)-8] }},
		{"zero-groups", "group count 0", zeroGroups},
		{"empty", "header", func([]byte) []byte { return nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := fast.DecodeSessionSnapshot(spliceKeys(snap, tc.edit))
			if err != nil {
				t.Fatalf("re-signed snapshot refused at decode: %v", err)
			}
			_, err = s.Restore()
			if err == nil || !strings.Contains(err.Error(), tc.cause) {
				t.Fatalf("restore error %v, want one naming %q", err, tc.cause)
			}
			if !errors.Is(err, fast.ErrCorruptSnapshot) {
				t.Fatalf("restore error %v does not wrap ErrCorruptSnapshot", err)
			}
		})
	}
}

// spliceLegacyMetaKey: the snapshot a build whose SessionMeta still ended in
// a "fault_scenario" field would have written — the key appended to the
// header's meta object, where encoding/json put that struct's last field.
func spliceLegacyMetaKey(t testing.TB, snap []byte, scenario string) []byte {
	t.Helper()
	return spliceHeader(t, snap, func(hdr []byte) (int, string) {
		metaEnd := bytes.Index(hdr, []byte(`},"config":`))
		if metaEnd < 0 {
			t.Fatalf("snapshot header %q has no meta object before config", hdr)
		}
		key := `"fault_scenario":"` + scenario + `"`
		if hdr[metaEnd-1] != '{' {
			key = "," + key
		}
		return metaEnd, key
	})
}

// spliceDefaultMethod: the snapshot a build whose header still ended in the
// context-wide "default_method" would have written for the same session.
func spliceDefaultMethod(t testing.TB, snap []byte, method string) []byte {
	t.Helper()
	return spliceHeader(t, snap, func(hdr []byte) (int, string) {
		return len(hdr) - 1, `,"default_method":"` + method + `"`
	})
}

// TestLegacySnapshotRestores: snapshots in the formats earlier builds wrote
// keep restoring. One carried "fault_scenario" in its meta; one named a
// context-wide "default_method" in its header, hybrid or klss, before the
// plan became the one owner of the key-switch method. Both members are
// ignored: the metadata comes back, and decrypts and a Mul on the restored
// context are byte-identical to the source context's, which runs hybrid
// unless an op is pinned.
func TestLegacySnapshotRestores(t *testing.T) {
	meta := fast.SessionMeta{ID: "s1", CreatedUnixNano: 12345, Restores: 2}
	ctx, snap := snapshotBytes(t, snapshotTestConfig(), meta)
	vals := make([]complex128, ctx.Slots())
	for i := range vals {
		vals[i] = complex(0.125*float64(i%7), -0.25*float64(i%3))
	}
	ct, err := ctx.Encrypt(vals)
	if err != nil {
		t.Fatal(err)
	}
	wire := ct.AppendBinary(nil)
	wantDec := ctx.Decrypt(ct)
	wantMul := mulBytes(t, ctx, ct)

	for _, tc := range []struct {
		name, landed string
		legacy       []byte
	}{
		{"fault_scenario", `"restores":2,"fault_scenario":"transfer"},"config":`, spliceLegacyMetaKey(t, snap, "transfer")},
		{"default_method=hybrid", `},"default_method":"hybrid"}`, spliceDefaultMethod(t, snap, "hybrid")},
		{"default_method=klss", `},"default_method":"klss"}`, spliceDefaultMethod(t, snap, "klss")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !bytes.Contains(tc.legacy, []byte(tc.landed)) {
				t.Fatalf("splice did not produce %s", tc.landed)
			}
			restored, gotMeta, err := fast.ReadSessionSnapshot(bytes.NewReader(tc.legacy))
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			if gotMeta != meta {
				t.Fatalf("meta: got %+v, want %+v", gotMeta, meta)
			}
			rct, err := restored.ReadCiphertextBytes(wire)
			if err != nil {
				t.Fatal(err)
			}
			for i, got := range restored.Decrypt(rct) {
				if got != wantDec[i] {
					t.Fatalf("slot %d: restored decrypt %v != source %v", i, got, wantDec[i])
				}
			}
			if !bytes.Equal(mulBytes(t, restored, rct), wantMul) {
				t.Fatal("Mul on the restored context differs from the source context's")
			}
		})
	}
}

// mulBytes is the wire form of ct*ct on ctx.
func mulBytes(t *testing.T, ctx *fast.Context, ct *fast.Ciphertext) []byte {
	t.Helper()
	prod, err := ctx.Mul(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	return prod.AppendBinary(nil)
}

// TestSessionSnapshotEmptyRotationsRoundTrip: a context built with an empty,
// non-nil rotation list — what fastd builds from a create carrying
// "rotations": [] — writes a snapshot that restores to the same config.
func TestSessionSnapshotEmptyRotationsRoundTrip(t *testing.T) {
	cfg := snapshotTestConfig()
	cfg.Rotations = []int{}
	ctx, snap := snapshotBytes(t, cfg, fast.SessionMeta{ID: "s1"})
	restored, _, err := fast.ReadSessionSnapshot(bytes.NewReader(snap))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got, want := restored.Config(), ctx.Config(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored Config() = %+v, want %+v", got, want)
	}
}

// TestSessionSnapshotGoldenBytes pins the snapshot wire bytes for a fixed
// seed and metadata. Each re-capture is tied to the digest pinned before it
// by splicing back what the format lost: the KLSS section the writer stored
// before KLSS keys were derived on first use (drawn from the main key stream
// after the hybrid keys) reproduces the previous golden, the header's
// trailing "default_method":"hybrid" on top of that the one before, and the
// meta's "fault_scenario":"none" the one before that. The format differs by
// those and nothing else: the hybrid keys did not move.
func TestSessionSnapshotGoldenBytes(t *testing.T) {
	meta := fast.SessionMeta{ID: "golden", CreatedUnixNano: 1234567890, Restores: 3}
	_, snap := snapshotBytes(t, snapshotTestConfig(), meta)
	check := func(name string, b []byte, wantLen int, wantSum string) {
		t.Helper()
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); len(b) != wantLen || got != wantSum {
			t.Fatalf("%s: len %d sha256 %s, want len %d sha256 %s", name, len(b), got, wantLen, wantSum)
		}
	}
	check("snapshot", snap, 525385, "4009e28143575dadfcaceaf3cb91cc2b47102c7bfec99b842fc88de83312886e")
	withKLSS := spliceStoredKLSS(t, snap)
	check("golden + stored KLSS section", withKLSS, 1017195, "8fe150c915b0fefc1ec6dd0490057dfdd889a2c0e7db0cf2d3e82941c3a86ddd")
	withMethod := spliceDefaultMethod(t, withKLSS, "hybrid")
	check("golden + KLSS + default_method", withMethod, 1017221, "41a0f1cf35c769f25cf1dd15f3079487d874e923dadceeae3ec92bb26b77fcc6")
	check("golden + KLSS + default_method + fault_scenario", spliceLegacyMetaKey(t, withMethod, "none"),
		1017245, "4768b642afe5686e3ecbbe5f91fd6f7b4db4d0b46146db5813f88bec795ee3ce")
}

// spliceStoredKLSS: the snapshot of snapshotTestConfig a build that
// generated KLSS keys with the hybrid ones would have written. That build
// drew them from the main key stream right after the hybrid keys —
// relinearization key, then the rotations in order, then conjugation — and
// stored them as the key set's second method section.
func spliceStoredKLSS(t *testing.T, snap []byte) []byte {
	t.Helper()
	cfg := snapshotTestConfig()
	params, err := ckks.NewParameters(ckks.ParametersLiteral{LogN: cfg.LogN, LogSlots: cfg.LogN - 1,
		LogQ: []int{50, 36, 36, 36}, LogP: []int{50, 50}, LogT: []int{60, 60},
		LogScale: cfg.LogScale, Alpha: 2, AlphaT: 2, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(params)
	sk := kg.GenSecretKey()
	kg.GenPublicKey(sk)
	if _, err := kg.GenEvaluationKeySet(sk, []ckks.KeySwitchMethod{ckks.Hybrid}, cfg.Rotations, cfg.Conjugation); err != nil {
		t.Fatal(err)
	}
	set := ckks.NewEvaluationKeySet()
	set.Galois[ckks.KLSS] = map[uint64]*ckks.SwitchingKey{}
	if set.Relin[ckks.KLSS], err = kg.GenRelinearizationKey(sk, ckks.KLSS); err != nil {
		t.Fatal(err)
	}
	galEls := make([]uint64, 0, len(cfg.Rotations)+1)
	for _, r := range cfg.Rotations {
		galEls = append(galEls, ring.GaloisElementForRotation(cfg.LogN, r))
	}
	galEls = append(galEls, ring.GaloisElementForConjugation(cfg.LogN))
	for _, el := range galEls {
		if set.Galois[ckks.KLSS][el], err = kg.GenGaloisKey(sk, el, ckks.KLSS); err != nil {
			t.Fatal(err)
		}
	}
	section := set.AppendBinary(nil)[2+4:] // past the set's tag, version and method count
	return spliceKeys(snap, func(keys []byte) []byte {
		_, rest, err := ckks.ParseSecretKey(keys, params)
		if err == nil {
			_, rest, err = ckks.ParsePublicKey(rest, params)
		}
		if err != nil {
			t.Fatal(err)
		}
		setAt := len(keys) - len(rest)
		binary.LittleEndian.PutUint32(keys[setAt+2:], 2)
		return append(keys, section...)
	})
}
