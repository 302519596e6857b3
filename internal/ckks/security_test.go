package ckks

import "testing"

func TestLogQP(t *testing.T) {
	tc := newTestContext(t)
	// Test parameters: Q = 50+5*36 = 230 bits, P = 2*50, T = 2*60 (bigger).
	// Generated primes may sit one bit above their nominal size, so allow a
	// one-bit-per-limb slack.
	if got := tc.params.LogQP(); got < 350 || got > 350+8 {
		t.Errorf("LogQP = %d, want ~350", got)
	}
}

func TestSecurityEstimates(t *testing.T) {
	// The laptop test set (N=2^11, 350-bit QP) is deliberately insecure.
	tc := newTestContext(t)
	if tc.params.IsSecure() {
		t.Error("test parameters must not be flagged secure")
	}
	if sec := tc.params.SecurityEstimate(); sec <= 0 || sec >= 128 {
		t.Errorf("test-set estimate %f out of expected (0,128)", sec)
	}

	// A paper-shaped set: N=2^15 with a modest chain clears 128 bits.
	big, err := NewParameters(ParametersLiteral{
		LogN:     15,
		LogSlots: 14,
		LogQ:     []int{50, 36, 36, 36, 36, 36, 36, 36, 36, 36},
		LogP:     []int{50, 50},
		LogScale: 36,
		Alpha:    2,
		Seed:     9,
	})
	if err != nil {
		t.Fatalf("NewParameters: %v", err)
	}
	if !big.IsSecure() {
		t.Errorf("N=2^15 with %d-bit QP should clear 128 bits (estimate %.0f)",
			big.LogQP(), big.SecurityEstimate())
	}

	// Sparse secrets take a haircut.
	logQ := []int{50}
	for i := 0; i < 16; i++ {
		logQ = append(logQ, 36)
	}
	lit := ParametersLiteral{
		LogN:                15,
		LogSlots:            4,
		LogQ:                logQ,
		LogP:                []int{50, 50},
		LogScale:            36,
		Alpha:               2,
		Seed:                10,
		SecretHammingWeight: 16,
	}
	sparse, err := NewParameters(lit)
	if err != nil {
		t.Fatalf("NewParameters: %v", err)
	}
	lit.SecretHammingWeight = 0
	dense, err := NewParameters(lit)
	if err != nil {
		t.Fatalf("NewParameters: %v", err)
	}
	if sparse.SecurityEstimate() >= dense.SecurityEstimate() {
		t.Error("sparse secret should lower the estimate")
	}
	if sparse.SecurityEstimate() > 256 || dense.SecurityEstimate() > 256 {
		t.Error("estimates must cap at 256")
	}
}
