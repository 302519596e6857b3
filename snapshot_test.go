package fast_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/cmplx"
	"testing"

	fast "github.com/fastfhe/fast"
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
	if _, err := s.Restore(fast.WithSeed(99)); !errors.Is(err, fast.ErrInvalidParameters) {
		t.Fatalf("WithSeed on restore: err %v, want ErrInvalidParameters", err)
	}
	if _, err := s.Restore(fast.WithRotations(2, 3)); !errors.Is(err, fast.ErrInvalidParameters) {
		t.Fatalf("WithRotations on restore: err %v, want ErrInvalidParameters", err)
	}
	// Non-mutating options stay legal.
	if _, err := s.Restore(fast.WithDefaultMethod(fast.KLSS)); err != nil {
		t.Fatalf("WithDefaultMethod(KLSS) on KLSS-enabled snapshot: %v", err)
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
// restore from bytes that differ from a checksum-valid snapshot.
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

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := fast.DecodeSessionSnapshot(data)
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

// spliceLegacyMetaKey rewrites a well-formed snapshot into the one a build
// whose SessionMeta still ended in a "fault_scenario" field would have
// written for the same session: the key appended to the header's meta object
// (where encoding/json put that struct's last field), hdrLen and the
// trailing SHA-256 recomputed. Nothing else in the file moves.
func spliceLegacyMetaKey(t testing.TB, snap []byte, scenario string) []byte {
	t.Helper()
	const hdrStart = 8 + 4 // magic, hdrLen
	hdrLen := int(binary.LittleEndian.Uint32(snap[8:hdrStart]))
	hdr := snap[hdrStart : hdrStart+hdrLen]
	metaEnd := bytes.Index(hdr, []byte(`},"config":`))
	if metaEnd < 0 {
		t.Fatalf("snapshot header %q has no meta object before config", hdr)
	}
	key := `"fault_scenario":"` + scenario + `"`
	if hdr[metaEnd-1] != '{' {
		key = "," + key
	}
	out := append([]byte(nil), snap[:hdrStart+metaEnd]...)
	out = append(out, key...)
	out = append(out, snap[hdrStart+metaEnd:len(snap)-sha256.Size]...)
	binary.LittleEndian.PutUint32(out[8:hdrStart], uint32(hdrLen+len(key)))
	sum := sha256.Sum256(out)
	return append(out, sum[:]...)
}

// TestSnapshotWithLegacyFaultScenarioRestores: a snapshot written by a build
// whose SessionMeta still carried fault_scenario must keep restoring — the
// key is ignored, the keys behind it are the same keys.
func TestSnapshotWithLegacyFaultScenarioRestores(t *testing.T) {
	meta := fast.SessionMeta{ID: "s1", CreatedUnixNano: 12345, Restores: 2}
	ctx, snap := snapshotBytes(t, snapshotTestConfig(), meta)
	legacy := spliceLegacyMetaKey(t, snap, "transfer")
	if !bytes.Contains(legacy, []byte(`"restores":2,"fault_scenario":"transfer"},"config":`)) {
		t.Fatal("splice did not land at the end of the meta object")
	}

	restored, gotMeta, err := fast.ReadSessionSnapshot(bytes.NewReader(legacy))
	if err != nil {
		t.Fatalf("restore of a legacy snapshot: %v", err)
	}
	if gotMeta != meta {
		t.Fatalf("meta: got %+v, want %+v", gotMeta, meta)
	}
	ct, err := ctx.Encrypt([]complex128{1 + 2i, -0.5i})
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if err := ct.Serialize(&wire); err != nil {
		t.Fatal(err)
	}
	rct, err := restored.ReadCiphertext(&wire)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := restored.Mul(rct, rct)
	if err != nil {
		t.Fatalf("Mul on the restored context: %v", err)
	}
	if got := restored.Decrypt(prod)[0]; cmplx.Abs(got-(1+2i)*(1+2i)) > 1e-4 {
		t.Fatalf("(1+2i)^2 on the restored context = %v", got)
	}
}

// TestSessionSnapshotGoldenBytes pins the snapshot wire bytes for a fixed
// seed and metadata. The digest was re-captured when SessionMeta lost its
// last field (the old golden meta carried "fault_scenario":"none"); splicing
// that one key back must reproduce the digest pinned before, which ties the
// two: the format differs by that key and nothing else.
func TestSessionSnapshotGoldenBytes(t *testing.T) {
	meta := fast.SessionMeta{ID: "golden", CreatedUnixNano: 1234567890, Restores: 3}
	_, snap := snapshotBytes(t, snapshotTestConfig(), meta)
	const wantLen, wantSum = 1017221, "41a0f1cf35c769f25cf1dd15f3079487d874e923dadceeae3ec92bb26b77fcc6"
	if got := fmt.Sprintf("%x", sha256.Sum256(snap)); len(snap) != wantLen || got != wantSum {
		t.Fatalf("snapshot bytes changed: len %d sha256 %s, want len %d sha256 %s", len(snap), got, wantLen, wantSum)
	}
	const legacyLen, legacySum = 1017245, "4768b642afe5686e3ecbbe5f91fd6f7b4db4d0b46146db5813f88bec795ee3ce"
	legacy := spliceLegacyMetaKey(t, snap, "none")
	if got := fmt.Sprintf("%x", sha256.Sum256(legacy)); len(legacy) != legacyLen || got != legacySum {
		t.Fatalf("golden + legacy key: len %d sha256 %s, want the previous golden len %d sha256 %s",
			len(legacy), got, legacyLen, legacySum)
	}
}
