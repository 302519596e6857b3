package fast_test

import (
	"testing"

	"github.com/fastfhe/fast/internal/ring/kerneltest"
)

// TestOraclesEveryKernelPath reruns the snapshot golden bytes and the
// plaintext-shadowed random script under each kernel path the host offers,
// with their expected bytes and precision floors unchanged.
func TestOraclesEveryKernelPath(t *testing.T) {
	kerneltest.EachPath(t, func(t *testing.T) {
		t.Run("TestSessionSnapshotGoldenBytes", TestSessionSnapshotGoldenBytes)
		t.Run("TestRandomScriptAgainstPlaintext", TestRandomScriptAgainstPlaintext)
	})
}
