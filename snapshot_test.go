package fast_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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
		{"truncated-half", func(b []byte) []byte { return b[:n/2] }},
		{"truncated-checksum", func(b []byte) []byte { return b[:n-16] }},
		{"flip-magic", flipByte(0)},
		{"flip-header-len", flipByte(9)},
		{"flip-header", flipByte(20)},
		{"flip-middle", flipByte(n / 2)},
		{"flip-last-header-byte", flipByte(n - 33)},
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
// the header of a re-signed snapshot: every key comes from that header, and
// the restore succeeds or is refused as corrupt.
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
	f.Add([]byte("FASTSNP\x02garbage"))
	f.Add(valid[:len(valid)/2])
	mut := append([]byte(nil), valid...)
	mut[len(mut)/3] ^= 1
	f.Add(mut)
	hdr := snapshotHeader(valid)
	f.Add(hdr)
	f.Add(hdr[:len(hdr)-1])
	f.Add(bytes.Replace(hdr, []byte(`"Levels":1`), []byte(`"Levels":0`), 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		// data as a header, re-signed so it reaches Restore. Only the
		// dimensions that control keygen time are bounded, as in
		// FuzzContextConfig: a config past them is skipped, not refused.
		var size struct {
			Config struct {
				LogN, Levels int
				Rotations    []int
			}
		}
		if json.Unmarshal(data, &size) != nil || (size.Config.LogN <= 11 && size.Config.Levels <= 6 && len(size.Config.Rotations) <= 8) {
			s, err := fast.DecodeSessionSnapshot(withHeader(valid, data))
			if err == nil {
				_, err = s.Restore()
			}
			if err != nil && !errors.Is(err, fast.ErrCorruptSnapshot) {
				t.Fatalf("header %q refused without ErrCorruptSnapshot: %v", data, err)
			}
		}

		// data as a whole snapshot.
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

// resign appends body's SHA-256: the trailer a snapshot writer puts after it.
func resign(body []byte) []byte {
	sum := sha256.Sum256(body)
	return append(body, sum[:]...)
}

// snapshotHeader is a well-formed snapshot's JSON header.
func snapshotHeader(snap []byte) []byte {
	return snap[8+4 : 8+4+binary.LittleEndian.Uint32(snap[8:])]
}

// withHeader is snap with its header replaced by hdr: hdrLen
// and the trailing SHA-256 are recomputed, so the result passes the checksum
// and reaches Restore.
func withHeader(snap, hdr []byte) []byte {
	const hdrStart = 8 + 4 // magic, hdrLen
	out := binary.LittleEndian.AppendUint32(bytes.Clone(snap[:8]), uint32(len(hdr)))
	out = append(append(out, hdr...), snap[hdrStart+len(snapshotHeader(snap)):len(snap)-sha256.Size]...)
	return resign(out)
}

// TestSessionSnapshotRejectsUnresolvedConfig: every key a restore holds comes
// from the header's config, so a checksum-valid header whose config is not
// the resolved form of itself, or does not compile, is a corrupt snapshot —
// the error a daemon answers by tombstoning the file instead of reading it
// again on every request. A config that resolves to another one would
// otherwise restore the other one's keys under its own name ("Seed":0 holds
// seed 1's keys, not the writer's seed 7).
func TestSessionSnapshotRejectsUnresolvedConfig(t *testing.T) {
	_, snap := snapshotBytes(t, snapshotTestConfig(), fast.SessionMeta{ID: "s1"})
	hdr := snapshotHeader(snap)
	for _, tc := range []struct{ from, to string }{
		{`"Seed":7`, `"Seed":0`},
		{`"LogScale":36`, `"LogScale":0`},
		{`"LogSlots":8`, `"LogSlots":30`},
		{`"LogN":9`, `"LogN":0`},
		{`"Levels":3`, `"Levels":0`},
	} {
		t.Run(tc.to, func(t *testing.T) {
			edited := bytes.Replace(hdr, []byte(tc.from), []byte(tc.to), 1)
			if bytes.Equal(edited, hdr) {
				t.Fatalf("header %s has no %s", hdr, tc.from)
			}
			s, err := fast.DecodeSessionSnapshot(withHeader(snap, edited))
			if err != nil {
				t.Fatalf("re-signed snapshot refused at decode: %v", err)
			}
			if _, err := s.Restore(); !errors.Is(err, fast.ErrCorruptSnapshot) {
				t.Fatalf("restore error %v, want ErrCorruptSnapshot", err)
			}
		})
	}
}

// TestSessionSnapshotIsItsHeader: a snapshot holds no key material — it is
// the magic, the header and the checksum — so a DefaultConfig session's is
// under 1 KiB.
func TestSessionSnapshotIsItsHeader(t *testing.T) {
	_, snap := snapshotBytes(t, fast.DefaultConfig(), fast.SessionMeta{ID: "s1", CreatedUnixNano: 1, Restores: 1})
	if want := 8 + 4 + len(snapshotHeader(snap)) + sha256.Size; len(snap) != want || len(snap) >= 1024 {
		t.Fatalf("DefaultConfig snapshot is %d bytes, want magic+hdrLen+header+sum = %d, under 1 KiB", len(snap), want)
	}
}

// TestLegacySnapshotRefused: version 2 is the only snapshot format read.
// The key-carrying "FASTSNP\x01" format earlier builds wrote
// (testdata/snapshot_v1.snap, written at LogN 4 / Levels 2 / seed 11 with
// KLSS, and pinned by its digest) is refused, and so is a current snapshot
// re-signed under any other version byte. Each checksum is valid, so the
// refusal is the version byte's: the error wraps ErrCorruptSnapshot and names
// the version, for a snapshot decoded alone or read and restored in one step.
func TestLegacySnapshotRefused(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "snapshot_v1.snap"))
	if err != nil {
		t.Fatal(err)
	}
	const wantLen, wantSum = 8912, "5ca81f9ced5260873ff694a9b5cd2558d4bf554776bb02d2d3abb6fc69e3cda6"
	if got := fmt.Sprintf("%x", sha256.Sum256(v1)); len(v1) != wantLen || got != wantSum {
		t.Fatalf("fixture: len %d sha256 %s, want len %d sha256 %s", len(v1), got, wantLen, wantSum)
	}
	_, v2 := snapshotBytes(t, snapshotTestConfig(), fast.SessionMeta{ID: "s1"})
	files := map[string][]byte{"version=1_fixture": v1}
	for _, v := range []byte{0, 3, 255} {
		body := bytes.Clone(v2[:len(v2)-sha256.Size])
		body[7] = v
		files[fmt.Sprintf("version=%d", v)] = resign(body)
	}
	for name, snap := range files {
		t.Run(name, func(t *testing.T) {
			version := fmt.Sprintf("version %d,", snap[7])
			if s, err := fast.DecodeSessionSnapshot(snap); !errors.Is(err, fast.ErrCorruptSnapshot) || !strings.Contains(err.Error(), version) {
				t.Fatalf("decode: snapshot %v, error %v; want ErrCorruptSnapshot naming %q", s, err, version)
			}
			if _, _, err := fast.ReadSessionSnapshot(bytes.NewReader(snap)); !errors.Is(err, fast.ErrCorruptSnapshot) {
				t.Fatalf("read: error %v, want ErrCorruptSnapshot", err)
			}
		})
	}
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
// seed and metadata. It was re-captured once when the snapshot became its
// header ("FASTSNP\x02"): the key-carrying "FASTSNP\x01" format it pinned
// before is now refused (TestLegacySnapshotRefused).
func TestSessionSnapshotGoldenBytes(t *testing.T) {
	meta := fast.SessionMeta{ID: "golden", CreatedUnixNano: 1234567890, Restores: 3}
	_, snap := snapshotBytes(t, snapshotTestConfig(), meta)
	check := func(name string, b []byte, wantLen int, wantSum string) {
		t.Helper()
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); len(b) != wantLen || got != wantSum {
			t.Fatalf("%s: len %d sha256 %s, want len %d sha256 %s", name, len(b), got, wantLen, wantSum)
		}
	}
	check("snapshot", snap, 253, "04a76280d8ff435b5f68825e79a664dd9c0d79fbfac3b38207b0c69a6cbb793f")
}
