package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	fast "github.com/fastfhe/fast"
)

// serialize returns a ciphertext's wire bytes — the form in which the
// library workloads check that an operation repeats bit for bit.
func serialize(ct *fast.Ciphertext) ([]byte, error) {
	var buf bytes.Buffer
	if err := ct.Serialize(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// libCaller is one caller thread of a library workload: the operation it
// repeats and the bytes every repetition must produce.
type libCaller struct {
	op   func() (*fast.Ciphertext, error)
	want []byte
}

// libLoop is the closed loop both library workloads share: each caller thread
// repeats its op, times it, and checks every output against the first one's
// bytes. The check's own time (a serialisation, ~1 % of an op) is excluded
// from the window as the mean over the callers.
func libLoop(env *runEnv, d time.Duration, tr *tracer, spanName string, callers []libCaller) *window {
	total := newWindow()
	self0 := selfCPUSeconds()
	start := time.Now()
	deadline := start.Add(d)
	parts := make([]*window, len(callers))
	var wg sync.WaitGroup
	for i, c := range callers {
		wg.Add(1)
		go func(i int, c libCaller) {
			defer wg.Done()
			w := newWindow()
			for n := 0; time.Now().Before(deadline) && (env.maxOps == 0 || n < env.maxOps); n++ {
				opID := i*1_000_000 + n
				root := tr.start("op."+spanName, -1, opID)
				call := tr.start(spanName, root, opID)
				t0 := time.Now()
				out, err := c.op()
				ms := float64(time.Since(t0).Nanoseconds()) / 1e6
				tr.end(call)
				vs := tr.start("bench.verify", root, opID)
				v0 := time.Now()
				var got []byte
				if err == nil {
					got, err = serialize(out)
				}
				switch {
				case err != nil:
					w.fail("%v", err)
				case !bytes.Equal(got, c.want):
					w.fail("output differs from the first output for the same input")
				default:
					w.record(spanName, ms)
				}
				w.excluded += time.Since(v0)
				tr.end(vs)
				tr.end(root)
			}
			parts[i] = w
		}(i, c)
	}
	wg.Wait()
	total.elapsed = time.Since(start)
	// The harness is the system under test here: its CPU is the system's.
	total.sutCPU = selfCPUSeconds() - self0
	for _, p := range parts {
		total.merge(p)
		total.excluded += p.excluded / time.Duration(len(parts))
	}
	return total
}

// deepConfig is lib_deep's parameter point: KLSS on, rotations {1..32}.
func deepConfig(size sizing, seed int64) fast.ContextConfig {
	return fast.ContextConfig{
		LogN: size.deepLogN, Levels: size.deepLevels, LogScale: 36,
		Rotations: []int{1, 2, 4, 8, 16, 32}, EnableKLSS: true, Seed: seed,
	}
}

// libDeep: in-process fast.Context at (log_n 13, 11 levels), one caller
// thread running Context.Execute of deepProgram with per-op limb fan-out of
// two. Compute only, zero envelope.
type libDeep struct {
	env   *runEnv
	cfg   fast.ContextConfig
	ctx   *fast.Context
	plain []complex128
	in    *fast.Ciphertext
	plan  *fast.Plan
	want  []byte
	bits  float64
}

func (l *libDeep) sutPID() int        { return 0 }
func (l *libDeep) precision() float64 { return l.bits }

func (l *libDeep) setUp() error {
	rng := l.env.rng(3)
	l.cfg = deepConfig(l.env.size, 1+rng.Int63n(1<<30))
	var err error
	if l.ctx, err = fast.NewContext(l.cfg, fast.WithParallelism(2)); err != nil {
		return err
	}
	l.plain = seededVector(rng, l.ctx.Slots())
	if l.in, err = l.ctx.Encrypt(l.plain); err != nil {
		return err
	}
	if l.plan, err = l.ctx.Plan(deepProgram(), nil); err != nil {
		return err
	}
	out, err := l.execute()
	if err != nil {
		return err
	}
	wantVals, err := evalPlain(deepProgram(), map[string][]complex128{"x": l.plain})
	if err != nil {
		return err
	}
	var worst float64
	l.bits, worst = precisionBits(l.ctx.Decrypt(out), wantVals)
	if floor := precisionFloor[wlLibDeep]; worst < floor {
		return fmt.Errorf("lib_deep: %.1f correct bits in the worst slot, floor is %.0f", worst, floor)
	}
	if l.want, err = serialize(out); err != nil {
		return err
	}
	// About a second of warm-up: the first ten executes run ~20 % slow while
	// the scratch pools and the heap settle.
	for k := 0; k < l.env.size.warmOps; k++ {
		if _, err := l.execute(); err != nil {
			return err
		}
	}
	return nil
}

func (l *libDeep) execute() (*fast.Ciphertext, error) {
	return l.ctx.Execute(context.Background(), l.plan, map[string]*fast.Ciphertext{"x": l.in})
}

func (l *libDeep) run(d time.Duration, tr *tracer) (*window, error) {
	return libLoop(l.env, d, tr, "fast.execute", []libCaller{{l.execute, l.want}}), nil
}

func (l *libDeep) tearDown() { *l = libDeep{env: l.env} }

// libBootstrap: in-process fast.NewBootstrapContext at its defaults,
// min(nproc,2) caller threads each running ExhaustLevels + Bootstrap on its
// own ciphertext over the shared context. The paper's dominant workload:
// hybrid only, high level count, wide moduli.
type libBootstrap struct {
	env     *runEnv
	ctx     *fast.BootstrapContext
	callers []libCaller
	bits    float64
}

func (l *libBootstrap) sutPID() int        { return 0 }
func (l *libBootstrap) precision() float64 { return l.bits }

func (l *libBootstrap) setUp() error {
	rng := l.env.rng(4)
	var err error
	l.ctx, err = fast.NewBootstrapContext(fast.BootstrapContextConfig{LogN: l.env.size.bootLogN, Seed: 1 + rng.Int63n(1<<30)})
	if err != nil {
		return err
	}
	l.callers, l.bits = nil, 0
	for i := 0; i < l.env.clients; i++ {
		plain := seededVector(rng, l.ctx.Slots())
		in, err := l.ctx.Encrypt(plain)
		if err != nil {
			return err
		}
		op := func() (*fast.Ciphertext, error) { return l.ctx.Bootstrap(l.ctx.ExhaustLevels(in)) }
		// Each caller's first bootstrap is its warm-up (the very first fills
		// the lazy tables) and the output the oracle judges. Bootstrapping
		// preserves the message, so the oracle is the plaintext itself.
		out, err := op()
		if err != nil {
			return err
		}
		bits, worst := precisionBits(l.ctx.Decrypt(out), plain)
		if floor := precisionFloor[wlLibBootstrap]; worst < floor {
			return fmt.Errorf("lib_bootstrap: %.1f correct bits in the worst slot, floor is %.0f", worst, floor)
		}
		if i == 0 || bits < l.bits {
			l.bits = bits
		}
		want, err := serialize(out)
		if err != nil {
			return err
		}
		l.callers = append(l.callers, libCaller{op, want})
	}
	return nil
}

func (l *libBootstrap) run(d time.Duration, tr *tracer) (*window, error) {
	return libLoop(l.env, d, tr, "ckks.bootstrap", l.callers), nil
}

func (l *libBootstrap) tearDown() { *l = libBootstrap{env: l.env} }
