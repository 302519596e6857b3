package fast

import (
	"testing"

	"github.com/fastfhe/fast/internal/ckks"
)

// TestKeyBytesAtPrimeWidth pins the resident bytes of one evaluation key,
// the hybrid relinearization key at the top level, against the 8-byte layout
// it replaced (2·β·limbs·N words): each row is packed at the width of its
// prime (GenerateNTTPrimes' "36-bit" primes have 36 or 37 bits, and so on),
// and a row's only overhead is the 64 − b bytes of padding the widening
// loads read. The ratios are the layer-level evidence
// for the smaller resident set: at most 0.68 at lib_deep's shape (log_n 13,
// 11 levels, α 2), 0.67 at NewBootstrapContext's defaults (40/41-bit chain,
// three 50-bit special primes, α 3) and 0.72 at DefaultConfig.
func TestKeyBytesAtPrimeWidth(t *testing.T) {
	deep := DefaultConfig()
	deep.LogN, deep.Levels = 13, 11
	for _, tc := range []struct {
		name  string
		ctx   func() (*Context, error)
		bytes int
		bound float64
	}{
		{"DefaultConfig", func() (*Context, error) { return NewContext(DefaultConfig()) }, 512562, 0.72},
		{"lib_deep", func() (*Context, error) { return NewContext(deep) }, 6787104, 0.68},
		{"NewBootstrapContext", func() (*Context, error) {
			b, err := NewBootstrapContext(BootstrapContextConfig{})
			if err != nil {
				return nil, err
			}
			return b.Context, nil
		}, 10867500, 0.67},
	} {
		ctx, err := tc.ctx()
		if err != nil {
			t.Fatal(err)
		}
		key, err := ctx.keys.RelinKey(ckks.Hybrid)
		if err != nil {
			t.Fatal(err)
		}
		packed := 0
		for j := range key.B {
			for i := range key.B[j].Rows {
				packed += len(key.B[j].Rows[i]) + len(key.A[j].Rows[i])
			}
		}
		words := 2 * len(key.B) * len(key.B[0].Rows) * ctx.params.N() * 8
		ratio := float64(packed) / float64(words)
		t.Logf("%s: %d bytes packed, %d in 8-byte words: %.4f", tc.name, packed, words, ratio)
		if packed != tc.bytes || ratio > tc.bound {
			t.Errorf("%s: one key holds %d bytes (%.4f of the 8-byte layout), want %d (at most %.2f)", tc.name, packed, ratio, tc.bytes, tc.bound)
		}
	}
}
