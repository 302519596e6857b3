package costmodel

// The online count: what a functional context's key switch costs on the CPU
// backend, in the accelerator model's 36-bit op equivalents. A context runs
// neither of Params' methods (Set-I's α = 12 hybrid, a double-decomposition
// KLSS): both of its methods are one ModUp → KeyMult → ModDown
// (ckks.KeySwitcher), over the special chain P for hybrid and the auxiliary
// chain T for KLSS. Shape describes that. The online planner, Plan.Units and
// fastd's admission price with it; the MCT, the simulator and the paper's
// tables keep Params.

// Shape is a functional context's key-switch shape, in plain ints so the
// count needs nothing from the scheme.
type Shape struct {
	LogN   int
	L      int // maximum level
	Alpha  int // digit size of the hybrid method
	AlphaT int // digit size of the KLSS method
	P, T   int // special-chain lengths; T = 0 without the KLSS chain
	// Lane weights of the Q, P and T chains (LaneWeight).
	QLane, PLane, TLane int
}

// LaneWeight returns the lane weight of a chain from its primes' bit sizes:
// 1 when every prime has 2q ≤ 2^52 (at most 51 bits: the moduli the 52-bit
// kernels take), else a 60-bit op's weight60 of 2, the 64-bit kernels the
// widest prime runs on.
func LaneWeight(bits ...int) int {
	for _, b := range bits {
		if b > 51 {
			return int(weight60)
		}
	}
	return 1
}

// KeySwitch counts `hoist` rotations sharing one ModUp at a level under m,
// as ckks.KeySwitcher runs them, with k = level+1 Q rows, S special rows and
// digits of a rows:
//   - ModUp: k inverse NTTs, then per digit a base conversion of its rows
//     into the k+S−a others and as many forward NTTs;
//   - per rotation: the 2β(k+S)-row gadget product, the automorphism of its
//     2(k+S) rows, and a ModDown per component: S inverse NTTs, a
//     conversion of those S rows into k, k forward NTTs and k subtractions.
//
// A row counts N times its lane weight, an NTT (N/2)·logN times it. A
// conversion row counts at the wider of its source and target lanes, since
// the 52-bit kernels need both. The permutation is a copy and counts 1. A
// multiplication is priced as a one-rotation group: its relinearisation skips
// the permutation, which would cost both methods the same.
func (s Shape) KeySwitch(m Method, level, hoist int) Breakdown {
	return s.Hoisted(m, level, hoist, hoist)
}

// Hoisted counts `hoist` rotations sharing one ModUp whose gadget products
// end in `modDowns` ModDown pairs: KeySwitch's count with the ModDowns
// counted per pair instead of per rotation. An Add tree over several of the
// rotations sums their products in the PQ basis and runs one pair for them
// all (ckks.Evaluator.RotateSumWith), so a group fused into one sum is
// Hoisted(m, level, h, 1).
func (s Shape) Hoisted(m Method, level, hoist, modDowns int) Breakdown {
	k, a, sp, ws := level+1, s.Alpha, s.P, s.PLane
	if m == KLSS {
		a, sp, ws = s.AlphaT, s.T, s.TLane
	}
	a = max(a, 1)
	wq, wx := s.QLane, max(s.QLane, ws)
	n := float64(int(1) << s.LogN)
	ntt := n / 2 * float64(s.LogN)
	beta := (k + a - 1) / a

	up := Breakdown{NTT: float64(k*wq) * ntt}
	for lo := 0; lo < k; lo += a {
		d := min(a, k-lo)
		up.BConv += float64(d*wq+d*(k-d)*wq+d*sp*wx) * n
		up.NTT += float64((k-d)*wq+sp*ws) * ntt
	}
	rot := Breakdown{
		KeyMult: float64(2*beta*(k*wq+sp*ws)) * n,
		Other:   float64(2*(k+sp)) * n,
	}
	down := Breakdown{
		NTT:   float64(2*(sp*ws+k*wq)) * ntt,
		BConv: float64(2*(sp*ws+k*sp*wx)) * n,
		Other: float64(2*k*wq) * n,
	}
	return up.Add(rot.Scale(float64(max(hoist, 1)))).Add(down.Scale(float64(max(modDowns, 1))))
}

// PassUnits is the unit weight of one element-wise pass over a ciphertext
// (add, rescale, plaintext ops, encode/encrypt/decrypt): one touch per
// coefficient per limb at the full depth.
func (s Shape) PassUnits() float64 {
	return float64(int(1)<<s.LogN) * float64(s.L+1) * float64(s.QLane)
}

// ForContext returns Set-I parameters resized to a live functional context:
// its ring-degree exponent and maximum level replace the paper's hardware
// point. Zero values fall back to LogN 11, L 5. It is the accelerator's count
// at a context's size, not what the context runs; Shape is that.
func ForContext(logN, level int) Params {
	p := SetI()
	p.LogN = logN
	if p.LogN == 0 {
		p.LogN = 11
	}
	p.L = level
	if p.L == 0 {
		p.L = 5
	}
	return p
}
