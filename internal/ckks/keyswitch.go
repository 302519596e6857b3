package ckks

import (
	"fmt"
	"sync"
	"time"

	"github.com/fastfhe/fast/internal/obs"
	"github.com/fastfhe/fast/internal/ring"
	"github.com/fastfhe/fast/internal/rns"
)

// KeySwitcher executes the key-switching dataflow for one backend. Both
// backends share the gadget structure (the paper's Fig. 1): the hybrid
// method runs ModUp → KeyMult → ModDown over the 36-bit special chain P,
// while the KLSS backend runs the same stages over the 60-bit auxiliary
// chain T with α_T digits, exercising the accelerator's 60-bit datapath (the
// paper's double decomposition is modelled only in internal/costmodel). The
// β·α grouping, gadget selectors and ModDown rounding are identical
// mathematics; only the chain (and hence the per-kernel operation counts,
// costmodel.Shape.KeySwitch) differs.
//
// A KeySwitcher is safe for concurrent use: its ModUp and ModDown tables
// belong to the parameter shape (shared read-only by every switcher over it,
// see switchTables), and its scratch comes from the shape's sync.Pool-backed
// buffer reservoir, so no per-operation state is shared between goroutines.
type KeySwitcher struct {
	params *Parameters
	method KeySwitchMethod

	keyRing *ring.Ring
	sLen    int // number of special limbs
	alpha   int
	tables  *switchTables

	// parallelism caps the goroutine fan-out of the limb-level kernels
	// (ModUp NTTs, BConv, KeyMult rows, ModDown) following ring.Workers
	// semantics. Fixed at construction; the shared tables take it per call.
	parallelism int

	// pool recycles scratch polynomials of the extended (Q++special) shape:
	// this switcher's instruments over the shape's reservoir.
	pool *ring.PolyPool

	// Phase-timing instruments (nil when unobserved; see SetObserver). The
	// guard is a single pointer check, so the uninstrumented path pays no
	// clock reads. The tracer (nil unless the observer traces) additionally
	// emits one Chrome-trace span per ModUp/KeyMult/ModDown phase, tagged
	// with the request ID when the operation ran under a request context.
	modUpNS   *obs.Histogram
	keyMultNS *obs.Histogram
	modDownNS *obs.Histogram
	tracer    *obs.Tracer
}

// switchTables are one backend's key-switch tables at every level of a
// shape. A level is built on its first key switch, by whichever switcher gets
// there first, and is read-only from then on. pool is the reservoir of
// extended-shape scratch the backend's switchers share.
type switchTables struct {
	levels []switchLevel
	pool   *ring.PolyPool
}

// switchLevel is the ModUp converter of each digit at one level and the
// level's ModDown context.
type switchLevel struct {
	once   sync.Once
	exts   []modUpExt
	downer *rns.ModDowner
	err    error
}

// modUpExt is one digit's ModUp converter with the rows of the extended
// polynomial it writes: every row but the digit's own, in target-basis order.
type modUpExt struct {
	ext  *rns.Extender
	rows []int
}

func newSwitchTables(keyRing *ring.Ring, levels int) *switchTables {
	return &switchTables{levels: make([]switchLevel, levels), pool: ring.NewPolyPool(keyRing.N, len(keyRing.Moduli))}
}

// NewKeySwitcherWorkers builds the switcher with the given limb-parallelism
// fan-out (ring.Workers convention: <=0 means GOMAXPROCS, 1 serial).
func NewKeySwitcherWorkers(params *Parameters, method KeySwitchMethod, workers int) (*KeySwitcher, error) {
	kr, sLen, err := params.keyRing(method)
	if err != nil {
		return nil, err
	}
	tables := params.switching[methodIdx(method)]
	return &KeySwitcher{
		params:      params,
		method:      method,
		keyRing:     kr,
		sLen:        sLen,
		alpha:       params.groupAlpha(method),
		tables:      tables,
		parallelism: workers,
		pool:        tables.pool.Share(),
	}, nil
}

// Method returns the backend this switcher runs.
func (ks *KeySwitcher) Method() KeySwitchMethod { return ks.method }

// SetObserver attaches the key-switch phase instruments (paper Fig. 1
// dataflow stages): per-method ModUp, KeyMult and ModDown latency histograms
// plus scratch-pool traffic counters. Call before the switcher is shared
// across goroutines. A nil observer detaches.
func (ks *KeySwitcher) SetObserver(o *obs.Observer) {
	if o == nil {
		ks.modUpNS, ks.keyMultNS, ks.modDownNS, ks.tracer = nil, nil, nil, nil
		ks.pool.Instrument(nil, nil, nil, nil)
		return
	}
	reg := o.Reg()
	prefix := "ckks.keyswitch." + ks.method.String()
	ks.modUpNS = reg.Histogram(prefix + ".modup_ns")
	ks.keyMultNS = reg.Histogram(prefix + ".keymult_ns")
	ks.modDownNS = reg.Histogram(prefix + ".moddown_ns")
	ks.tracer = o.Tr()
	if ks.tracer != nil {
		ks.tracer.SetThreadName(TracePIDEvaluator, ksTraceTID, "keyswitch phases")
	}
	poolPrefix := "ring.pool.keyswitch." + ks.method.String()
	ks.pool.Instrument(
		reg.Counter(poolPrefix+".gets"),
		reg.Counter(poolPrefix+".puts"),
		reg.Counter(poolPrefix+".misses"),
		reg.Gauge(poolPrefix+".alloc_bytes"),
	)
}

// ksTraceTID is the Chrome-trace thread id of the key-switch phase track
// (evaluator op spans sit on tid 0 of the same process).
const ksTraceTID = 1

// traceSpan emits one key-switch phase span (ModUp/KeyMult/ModDown) tagged
// with the backend, level and — when the operation ran under a
// request-scoped context — the serving request ID. No-op without a tracer.
func (ks *KeySwitcher) traceSpan(name string, level int, t0 time.Time, cc *cancelCheck) {
	if ks.tracer == nil {
		return
	}
	ks.tracer.CompleteSince(name, "keyswitch", TracePIDEvaluator, ksTraceTID, t0,
		obs.Args{}.Method(ks.method.String()).Level(level).RequestID(cc.rid()))
}

// beta returns the group count at a level.
func (ks *KeySwitcher) beta(level int) int { return (level + 1 + ks.alpha - 1) / ks.alpha }

// qMods returns the ciphertext moduli active at level.
func (ks *KeySwitcher) qMods(level int) []ring.Modulus {
	return ks.keyRing.Moduli[:level+1]
}

// sMods returns the special-chain moduli.
func (ks *KeySwitcher) sMods() []ring.Modulus {
	qLen := len(ks.params.qChain)
	return ks.keyRing.Moduli[qLen : qLen+ks.sLen]
}

// level returns (building it on first use) the shared tables at a level:
// each digit's base converter from its primes to the complement basis (the
// other active q limbs ++ special limbs), and the ModDown context.
func (ks *KeySwitcher) level(level int) (*switchLevel, error) {
	t := &ks.tables.levels[level]
	t.once.Do(func() { t.exts, t.downer, t.err = ks.buildLevel(level) })
	return t, t.err
}

func (ks *KeySwitcher) buildLevel(level int) ([]modUpExt, *rns.ModDowner, error) {
	exts := make([]modUpExt, ks.beta(level))
	for j := range exts {
		lo, hi := j*ks.alpha, min((j+1)*ks.alpha, level+1)
		var from, to []ring.Modulus
		from = append(from, ks.qMods(level)[lo:hi]...)
		to = append(to, ks.qMods(level)[:lo]...)
		to = append(to, ks.qMods(level)[hi:]...)
		to = append(to, ks.sMods()...)
		ext, err := rns.NewExtender(from, to)
		if err != nil {
			return nil, nil, err
		}
		exts[j].ext = ext
		for i := 0; i < level+1+ks.sLen; i++ {
			if i < lo || i >= hi {
				exts[j].rows = append(exts[j].rows, i)
			}
		}
	}
	d, err := rns.NewModDowner(ks.qMods(level), ks.sMods())
	if err != nil {
		return nil, nil, err
	}
	return exts, d, nil
}

// Decomposition is the hoistable intermediate state of key-switching: the β
// ModUp-extended copies of the input polynomial over the active-Q++special
// basis, in NTT form. Computing it costs the bulk of the key-switch NTTs;
// hoisted rotations reuse one Decomposition across many rotations, which is
// exactly the saving the paper's hoisting analysis (§2.2.3, Fig. 3) counts.
//
// Decompositions hold pooled buffers: callers that obtained one from
// Decompose or Automorph must hand it back with Release once dead.
type Decomposition struct {
	Level  int
	Groups []ring.Poly // each has level+1+sLen limbs: rows [0,level] mod q_i, rest mod special
}

// Release returns the decomposition's buffers to the switcher's pool. The
// decomposition must not be used afterwards. Safe to call on nil.
func (ks *KeySwitcher) Release(d *Decomposition) {
	if d == nil {
		return
	}
	for _, g := range d.Groups {
		ks.pool.Put(g)
	}
	d.Groups = nil
}

// tableFor returns the NTT table of logical row i of an extended polynomial
// at the given level (q rows first, then special rows).
func (ks *KeySwitcher) tableFor(level, i int) *ring.NTTTable {
	if i <= level {
		return ks.keyRing.Tables[i]
	}
	qLen := len(ks.params.qChain)
	return ks.keyRing.Tables[qLen+(i-level-1)]
}

// modFor is the Modulus counterpart of tableFor.
func (ks *KeySwitcher) modFor(level, i int) ring.Modulus {
	if i <= level {
		return ks.keyRing.Moduli[i]
	}
	qLen := len(ks.params.qChain)
	return ks.keyRing.Moduli[qLen+(i-level-1)]
}

// Decompose performs the ModUp stage on c (level+1 limbs, NTT form): it
// splits the limbs into β groups of α and extends each group to the full
// active basis. The group's own limbs are reused in NTT form; converted
// limbs are transformed with one NTT each — the count the cost model and the
// accelerator's NTTU schedule charge for ModUp. The per-limb INTT/BConv/NTT
// work is fanned out across the switcher's worker budget (the FAST
// lane-parallel ModUp dataflow).
//
// The returned decomposition holds pooled buffers; Release it when done.
func (ks *KeySwitcher) Decompose(c ring.Poly, level int) (*Decomposition, error) {
	return ks.decompose(nil, c, level)
}

func (ks *KeySwitcher) decompose(cc *cancelCheck, c ring.Poly, level int) (*Decomposition, error) {
	if c.Limbs() != level+1 {
		return nil, fmt.Errorf("ckks: decompose input has %d limbs, want %d: %w", c.Limbs(), level+1, ErrLevelMismatch)
	}
	if err := cc.err("ModUp"); err != nil {
		return nil, err
	}
	var t0 time.Time
	if ks.modUpNS != nil || ks.tracer != nil {
		t0 = time.Now()
	}
	// One INTT per input limb to reach coefficient form for BConv. The lazy
	// variant leaves rows in [0, 2q), the bound ShoupMulVec — Convert's first
	// stage — requires of its source on every kernel path, saving the final
	// normalization pass per limb.
	cCoeff := ks.pool.Get(level + 1)
	defer ks.pool.Put(cCoeff)
	ring.ForEachLimbRange(level+1, ks.parallelism, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if cc.stopped() {
				return
			}
			copy(cCoeff.Coeffs[i], c.Coeffs[i])
			ks.keyRing.Tables[i].InverseLazy(cCoeff.Coeffs[i])
		}
	})
	if err := cc.err("ModUp"); err != nil {
		return nil, err
	}

	tl, err := ks.level(level)
	if err != nil {
		return nil, err
	}
	beta := ks.beta(level)
	ext := len(ks.sMods())
	d := &Decomposition{Level: level, Groups: make([]ring.Poly, beta)}
	for j, e := range tl.exts {
		if err := cc.err("ModUp"); err != nil {
			ks.Release(d)
			return nil, err
		}
		lo, hi := j*ks.alpha, min((j+1)*ks.alpha, level+1)
		out := ks.pool.Get(level + 1 + ext)
		// Record the buffer before converting so a cancellation below is
		// released by ks.Release(d) along with the earlier groups.
		d.Groups[j] = out
		// Source rows (coefficient form) convert into every row of out
		// except the group's own.
		e.ext.ConvertRows(cCoeff.Coeffs[lo:hi], out.Coeffs, e.rows, ks.parallelism)
		// Converted rows go back to NTT form; own rows copy from the NTT
		// input directly.
		ring.ForEachLimbRange(level+1+ext, ks.parallelism, func(rlo, rhi int) {
			for i := rlo; i < rhi; i++ {
				if cc.stopped() {
					return
				}
				if i >= lo && i < hi {
					copy(out.Coeffs[i], c.Coeffs[i])
					continue
				}
				ks.tableFor(level, i).Forward(out.Coeffs[i])
			}
		})
	}
	if err := cc.err("ModUp"); err != nil {
		ks.Release(d)
		return nil, err
	}
	if ks.modUpNS != nil {
		ks.modUpNS.ObserveSince(t0)
	}
	ks.traceSpan("ModUp", level, t0, cc)
	return d, nil
}

// Automorph applies the Galois permutation (NTT-domain index table) to every
// limb of the decomposition, returning a new decomposition drawn from the
// pool (Release it when done). This is the cheap per-rotation step of
// hoisting.
func (ks *KeySwitcher) Automorph(d *Decomposition, index []int) *Decomposition {
	out := &Decomposition{Level: d.Level, Groups: make([]ring.Poly, len(d.Groups))}
	for j, g := range d.Groups {
		og := ks.pool.Get(g.Limbs())
		ring.ForEachLimbRange(g.Limbs(), ks.parallelism, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				src, dsl := g.Coeffs[i], og.Coeffs[i]
				for k := range dsl {
					dsl[k] = src[index[k]]
				}
			}
		})
		out.Groups[j] = og
	}
	return out
}

// KeyMult runs the gadget inner product of a decomposition with a switching
// key and the final ModDown, producing (d0, d1) over the active Q limbs in
// NTT form such that d0 + d1*s ≈ c*sIn. The accumulator rows are independent
// lanes and are processed in parallel under the worker budget; the
// accumulators themselves come from the scratch pool.
//
// The β-digit inner product is a lazy multiply-accumulate
// (ring.Modulus.MulAccRows): per row each coefficient gathers Σ_j g_j*k_j
// unreduced and is reduced once after the last digit, instead of β
// AddMod(MulMod(...)) round-trips with a hardware division each. The rows stay
// in the NTT domain: ModDown runs there (rns.ModDowner.ModDownNTT), so only
// the special rows are inverse-transformed.
func (ks *KeySwitcher) KeyMult(d *Decomposition, key *SwitchingKey, level int) (d0, d1 ring.Poly, err error) {
	d0, d1 = ring.NewPoly(ks.params.N(), level+1), ring.NewPoly(ks.params.N(), level+1)
	if err := ks.keyMult(nil, []ksTerm{{d, key}}, level, d0, d1); err != nil {
		return ring.Poly{}, ring.Poly{}, err
	}
	return d0, d1, nil
}

// ksTerm is one (decomposition, key) product of a key switch's inner product.
type ksTerm struct {
	d   *Decomposition
	key *SwitchingKey
}

// maxInnerTerms is the h·β digit count keyMult's per-row tables hold on the
// stack: a four-rotation sum at β = 5 needs 20. A wider product still runs,
// its tables on the heap.
const maxInnerTerms = 32

// keyMult writes the switched pair of Σ_t terms[t] into d0 and d1 (level+1
// limbs each, every coefficient overwritten), so callers choose where the
// result lives. A lone key switch is one term; a rotate-and-sum passes one
// term per rotation, and every h·β digit product lands in the one PQ
// accumulator pair — a single MulAccRows per row — before the one ModDown
// pair. ModDown is linear up to its rounding, so the sum costs one division
// by P instead of h and is rounded once.
func (ks *KeySwitcher) keyMult(cc *cancelCheck, terms []ksTerm, level int, d0, d1 ring.Poly) error {
	beta := ks.beta(level)
	for _, t := range terms {
		if t.key.Method != ks.method {
			return fmt.Errorf("ckks: %v switcher given a %v key: %w", ks.method, t.key.Method, ErrMethodUnavailable)
		}
		if beta > len(t.key.B) {
			return fmt.Errorf("ckks: key has %d groups, need %d", len(t.key.B), beta)
		}
	}
	if err := cc.err("KeyMult"); err != nil {
		return err
	}
	var t0 time.Time
	if ks.keyMultNS != nil || ks.tracer != nil {
		t0 = time.Now()
	}
	n := ks.params.N()
	ext := len(ks.sMods())
	qLen := len(ks.params.qChain)
	rows := level + 1 + ext

	acc0 := ks.pool.Get(rows)
	acc1 := ks.pool.Get(rows)
	defer ks.pool.Put(acc0)
	defer ks.pool.Put(acc1)
	ring.ForEachLimbRange(rows, ks.parallelism, func(rlo, rhi int) {
		// Row tables of the inner product at hand: each term's digit rows
		// and their two key rows.
		var gBuf, bBuf, aBuf [maxInnerTerms][]uint64
		gs, bs, as := gBuf[:0], bBuf[:0], aBuf[:0]
		for i := rlo; i < rhi; i++ {
			if cc.stopped() {
				return
			}
			keyRow := i
			if i > level {
				keyRow = qLen + (i - level - 1)
			}
			gs, bs, as = gs[:0], bs[:0], as[:0]
			for _, t := range terms {
				for j := 0; j < beta; j++ {
					gs = append(gs, t.d.Groups[j].Coeffs[i][:n])
					bs = append(bs, t.key.B[j].Coeffs[keyRow][:n])
					as = append(as, t.key.A[j].Coeffs[keyRow][:n])
				}
			}
			// The modulus picks the datapath per row: a 52-bit-lane limb runs
			// the whole sum as multiply-adds with one fold, a 60-bit limb of
			// the KLSS chain keeps the 128-bit accumulator.
			m := ks.modFor(level, i)
			m.MulAccRows(acc0.Coeffs[i][:n], gs, bs)
			m.MulAccRows(acc1.Coeffs[i][:n], gs, as)
		}
	})

	if err := cc.err("KeyMult"); err != nil {
		return err
	}

	if ks.keyMultNS != nil || ks.tracer != nil {
		if ks.keyMultNS != nil {
			ks.keyMultNS.ObserveSince(t0)
		}
		ks.traceSpan("KeyMult", level, t0, cc)
		t0 = time.Now()
	}
	// ModDown: divide by the special chain without leaving the NTT domain on
	// the Q limbs. Cancellation is checked between the two components.
	tl, err := ks.level(level)
	if err != nil {
		return err
	}
	tQ := ks.keyRing.Tables[:level+1]
	tS := ks.keyRing.Tables[qLen : qLen+ext]
	tl.downer.ModDownNTT(acc0.Coeffs[:level+1], acc0.Coeffs[level+1:rows], d0.Coeffs, tQ, tS, ks.parallelism)
	if err := cc.err("ModDown"); err != nil {
		return err
	}
	tl.downer.ModDownNTT(acc1.Coeffs[:level+1], acc1.Coeffs[level+1:rows], d1.Coeffs, tQ, tS, ks.parallelism)
	if err := cc.err("ModDown"); err != nil {
		return err
	}
	if ks.modDownNS != nil {
		ks.modDownNS.ObserveSince(t0)
	}
	ks.traceSpan("ModDown", level, t0, cc)
	return nil
}

// Switch is the one-shot path: Decompose followed by KeyMult. All
// intermediate buffers are pooled; only the returned (d0, d1) pair is
// freshly allocated (it escapes into the output ciphertext).
func (ks *KeySwitcher) Switch(c ring.Poly, key *SwitchingKey, level int) (d0, d1 ring.Poly, err error) {
	d0, d1 = ring.NewPoly(ks.params.N(), level+1), ring.NewPoly(ks.params.N(), level+1)
	if err := ks.switchPoly(nil, c, key, level, d0, d1); err != nil {
		return ring.Poly{}, ring.Poly{}, err
	}
	return d0, d1, nil
}

// switchPoly is Switch writing into d0 and d1 (see keyMult).
func (ks *KeySwitcher) switchPoly(cc *cancelCheck, c ring.Poly, key *SwitchingKey, level int, d0, d1 ring.Poly) error {
	d, err := ks.decompose(cc, c, level)
	if err != nil {
		return err
	}
	defer ks.Release(d)
	return ks.keyMult(cc, []ksTerm{{d, key}}, level, d0, d1)
}
