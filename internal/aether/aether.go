// Package aether implements the offline half of the paper's dual-method
// management framework (§4.1.1): it receives the FHE operation flow of an
// application, builds the Methods Candidate Table (MCT) — per-ciphertext
// records of cost, delay, key size and key-transfer time for both
// key-switching methods under every feasible hoisting configuration — runs
// the three-step selection (capacity filter, transfer-hiding filter, minimal
// delay with minimal key size as tie-break), and emits the compact Aether
// configuration file the online Hemera manager consumes.
package aether

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/fastfhe/fast/internal/arch"
	"github.com/fastfhe/fast/internal/costmodel"
	"github.com/fastfhe/fast/internal/trace"
)

// Decision is the planner's verdict for one key-switching operation.
type Decision struct {
	OpIndex int              `json:"op"`
	Level   int              `json:"level"`
	Method  costmodel.Method `json:"method"`
	Hoist   int              `json:"hoist"`
}

// ConfigFile is the Aether configuration file: the per-operation method and
// hoisting selections, indexed by ciphertext/op order. The paper measures it
// at about 1 KB; it serialises to compact JSON.
type ConfigFile struct {
	Workload  string     `json:"workload"`
	Decisions []Decision `json:"decisions"`

	byOp map[int]Decision
}

// DecisionFor returns the decision for an op index, defaulting to
// non-hoisted hybrid (the safe fallback the hardware always supports).
func (c *ConfigFile) DecisionFor(op int) Decision {
	if c == nil {
		return Decision{OpIndex: op, Method: costmodel.Hybrid, Hoist: 1}
	}
	if c.byOp == nil {
		c.byOp = make(map[int]Decision, len(c.Decisions))
		for _, d := range c.Decisions {
			c.byOp[d.OpIndex] = d
		}
	}
	if d, ok := c.byOp[op]; ok {
		return d
	}
	return Decision{OpIndex: op, Method: costmodel.Hybrid, Hoist: 1}
}

// Save writes the configuration file as JSON.
func (c *ConfigFile) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(c)
}

// Load reads a configuration file.
func Load(r io.Reader) (*ConfigFile, error) {
	var c ConfigFile
	if err := json.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("aether: decoding config: %w", err)
	}
	return &c, nil
}

// MCTEntry is one row of the Methods Candidate Table (paper Fig. 5(a)):
// index [0] is the hybrid method, [1] KLSS.
type MCTEntry struct {
	OpIndex int
	CtID    int
	Level   int
	Hoist   int // hoisting configuration this row evaluates
	Times   int // times the ciphertext executes under this configuration

	Cost         [2]float64 // modular operations
	Delay        [2]float64 // compute cycles on the target accelerator
	KeySize      [2]int64   // evaluation-key bytes
	TransferTime [2]float64 // key transfer cycles at the config's bandwidth
}

// Analyzer is the offline preprocessing tool.
type Analyzer struct {
	params costmodel.Params
	cfg    arch.Config
}

// NewAnalyzer builds an analyzer for a parameter set and target accelerator.
func NewAnalyzer(params costmodel.Params, cfg arch.Config) (*Analyzer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Analyzer{params: params, cfg: cfg}, nil
}

// delayCycles estimates the compute cycles of a breakdown on the target.
func (a *Analyzer) delayCycles(m costmodel.Method, bd costmodel.Breakdown) float64 {
	return bd.Total() / a.cfg.EquivMuls36PerCycle(m.KernelBits())
}

// hoistCandidates enumerates the hoisting configurations for a group of
// maxH rotations: every power-of-two split up to the full group when
// hoisting is enabled, otherwise only the non-hoisted configuration.
func (a *Analyzer) hoistCandidates(maxH int) []int {
	if !a.cfg.EnableHoisting || maxH <= 1 {
		return []int{1}
	}
	var out []int
	for h := 1; h < maxH; h *= 2 {
		out = append(out, h)
	}
	return append(out, maxH)
}

// analyzeOp builds the MCT rows for one key-switching op.
func (a *Analyzer) analyzeOp(idx int, op trace.Op) []MCTEntry {
	var rows []MCTEntry
	for _, h := range a.hoistCandidates(op.HoistCount()) {
		groups := (op.HoistCount() + h - 1) / h // groups of h rotations
		e := MCTEntry{OpIndex: idx, CtID: op.CtID, Level: op.Level, Hoist: h, Times: groups}
		for mi, m := range []costmodel.Method{costmodel.Hybrid, costmodel.KLSS} {
			bd := a.params.KeySwitch(m, op.Level, h).Scale(float64(groups))
			e.Cost[mi] = bd.Total()
			e.Delay[mi] = a.delayCycles(m, bd)
			// A hoisted group needs h distinct rotation keys resident.
			e.KeySize[mi] = int64(h) * a.params.EvkBytes(m, op.Level)
			e.TransferTime[mi] = float64(e.KeySize[mi]) / a.cfg.BytesPerCycle()
		}
		rows = append(rows, e)
	}
	return rows
}

// Analyze runs the full workflow on a trace: locate HMult/HRot ops, build
// the MCT, apply the three selection steps and produce the configuration
// file. It also returns the MCT for inspection.
func (a *Analyzer) Analyze(tr *trace.Trace) (*ConfigFile, []MCTEntry, error) {
	if err := tr.Validate(); err != nil {
		return nil, nil, err
	}
	cfgFile := &ConfigFile{Workload: tr.Name}
	var mct []MCTEntry

	reservedBytes := int64(a.cfg.ReservedEvkMB * (1 << 20))
	prevExec := 0.0 // execution cycles of the preceding key-switch
	// Keys already scheduled for transfer earlier in the trace: thanks to
	// the minimum-key-switching storage scheme (§6.1), a key moves from HBM
	// once and later uses hit the Hemera pool, so only first uses count
	// against the transfer-hiding filter.
	seen := map[string]bool{}
	keyUses := map[string]int{}
	opKeys := func(op trace.Op, m costmodel.Method) []string {
		if op.Kind == trace.HMult {
			return []string{op.KeyID(m.String(), 0)}
		}
		ids := make([]string, 0, len(op.Rotations))
		for _, r := range op.Rotations {
			ids = append(ids, op.KeyID(m.String(), r))
		}
		return ids
	}

	for _, op := range tr.Ops {
		if !op.Kind.NeedsKeySwitch() {
			continue
		}
		for _, m := range []costmodel.Method{costmodel.Hybrid, costmodel.KLSS} {
			for _, id := range opKeys(op, m) {
				keyUses[id]++
			}
		}
	}

	for idx, op := range tr.Ops {
		if !op.Kind.NeedsKeySwitch() {
			continue
		}
		rows := a.analyzeOp(idx, op)
		mct = append(mct, rows...)

		type cand struct {
			method costmodel.Method
			hoist  int
			delay  float64
			size   int64
			trans  float64
		}
		var cands []cand
		for _, row := range rows {
			methods := []costmodel.Method{costmodel.Hybrid}
			if a.cfg.EnableKLSS {
				methods = append(methods, costmodel.KLSS)
			}
			for _, m := range methods {
				trans := 0.0
				for _, id := range opKeys(op, m) {
					if seen[id] {
						continue
					}
					// Only the EKG's moved half travels; the first
					// transfer amortises over every future use of the
					// key, which the offline analysis can count.
					uses := float64(keyUses[id])
					if uses < 1 {
						uses = 1
					}
					trans += float64(a.params.MovedEvkBytes(m, op.Level)) / a.cfg.BytesPerCycle() / uses
				}
				cands = append(cands, cand{m, row.Hoist, row.Delay[m], row.KeySize[m], trans})
			}
		}

		// STEP-1: drop configurations whose key set exceeds the reserved
		// on-chip key storage.
		filtered := cands[:0]
		for _, c := range cands {
			if c.size <= reservedBytes {
				filtered = append(filtered, c)
			}
		}
		if len(filtered) == 0 {
			// Nothing fits: fall back to the smallest-key configuration.
			best := cands[0]
			for _, c := range cands[1:] {
				if c.size < best.size {
					best = c
				}
			}
			filtered = append(filtered, best)
		}

		// STEP-2: prefer configurations whose key transfer hides behind the
		// preceding key-switch execution (the paper's transfer-latency
		// filter); keep everything if none qualifies.
		hidden := make([]cand, 0, len(filtered))
		for _, c := range filtered {
			if c.trans <= prevExec || prevExec == 0 {
				hidden = append(hidden, c)
			}
		}
		if len(hidden) > 0 {
			filtered = hidden
		}

		// STEP-3: minimal effective execution time — compute overlapped with
		// whatever key traffic double-buffering can hide — breaking ties
		// (within 5%) towards the smaller key set.
		eff := func(c cand) float64 {
			if c.trans > c.delay {
				return c.trans
			}
			return c.delay
		}
		best := filtered[0]
		for _, c := range filtered[1:] {
			switch {
			case eff(c) < eff(best)*0.95:
				best = c
			case eff(c) < eff(best)*1.05 && c.size < best.size:
				best = c
			}
		}
		cfgFile.Decisions = append(cfgFile.Decisions, Decision{
			OpIndex: idx, Level: op.Level, Method: best.method, Hoist: best.hoist,
		})
		for _, id := range opKeys(op, best.method) {
			seen[id] = true
		}
		prevExec = best.delay
	}
	return cfgFile, mct, nil
}
