package costmodel

// Admission weights for the serving layer. The admission controller
// (internal/serve) prices every request in 36-bit modular-operation
// equivalents: a planned program is its key-switch sites, each priced by
// KeySwitch at its level and hoist width (aether.PlanSites returns those
// units with its verdicts), plus a number of element-wise passes.

// ForContext returns Set-I parameters resized to a live functional context:
// its ring-degree exponent and maximum level replace the paper's hardware
// point. Zero values fall back to the laptop-sized defaults the daemon used
// historically (LogN 11, L 5).
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

// PassUnits is the unit weight of one element-wise pass over a ciphertext
// (add, rescale, plaintext ops, encode/encrypt/decrypt): one touch per
// coefficient per limb at the full depth.
func (p Params) PassUnits() float64 {
	return float64(p.N()) * float64(p.L+1)
}
