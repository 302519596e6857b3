package main

// Crash-point enumeration for the restore path's writes (ROADMAP item 4b):
// instead of sampling with random SIGKILLs, a hook at every durability
// boundary of the epoch write and the idempotency record write captures the
// state dir exactly as a kill at that instant would leave it. A fresh daemon
// on the captured dir must recover the session, replay every keyed eval whose
// response had been released, and never reuse a randomness epoch.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var crashPoints = []string{
	"epoch.create-tmp", "epoch.write", "epoch.fsync", "epoch.rename", "epoch.dir-fsync",
	"journal.write", "journal.fsync",
}

const crashIdemCap = 4

// crashRig turns one hook point into a simulated SIGKILL: on the chosen hit
// it copies the state dir aside — that copy IS the post-crash disk — and lets
// the doomed daemon run on; the test discards everything it does afterwards.
type crashRig struct {
	mu    sync.Mutex
	point string
	skip  int // hits of point to let pass first
	armed bool
	src   string
	dst   string // where the crash-instant copy goes
	done  bool   // the copy exists: the crash has happened
	err   error  // taking the copy failed
}

func (c *crashRig) hook(p string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.armed || c.done || p != c.point {
		return nil
	}
	if c.skip > 0 {
		c.skip--
		return nil
	}
	c.err = copyDir(c.src, c.dst)
	c.done = true
	return nil
}

func (c *crashRig) arm() {
	c.mu.Lock()
	c.armed = true
	c.mu.Unlock()
}

func (c *crashRig) fired() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done
}

// mustHaveFired is the end of every doomed daemon's script.
func (c *crashRig) mustHaveFired(t *testing.T) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.done {
		t.Fatalf("the script never reached its crash point %s", c.point)
	}
	if c.err != nil {
		t.Fatalf("capturing the state dir at %s: %v", c.point, c.err)
	}
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func newCrashDaemon(t *testing.T, dir string, c *crashRig) (*daemon, *httptest.Server) {
	t.Helper()
	d, ts := newTestDaemon(t, daemonConfig{StateDir: dir, IdemCap: crashIdemCap})
	if c != nil {
		d.store.hook = c.hook
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp.") {
			t.Fatalf("startup left a crashed write's temp file behind: %s", e.Name())
		}
	}
	return d, ts
}

// crashModel is what the outside world knows about one session across a
// chain of daemons: every keyed eval response it was handed, and every epoch
// it saw served.
type crashModel struct {
	id       string
	refCT    string // a ciphertext from before any crash: every eval's input...
	refPlain []byte // ...and the decrypt response it must keep producing
	nextKey  int
	released []crashReleased
	lastSess *session          // the residency (create or restore) that served the last response
	epochs   []uint64          // the epoch of every residency observed serving, in order
	firstCT  map[string]uint64 // first /encrypt response of a residency -> its epoch
}

type crashReleased struct {
	key  string
	body []byte
}

func (m *crashModel) create(t *testing.T, d *daemon, base string) {
	t.Helper()
	m.id, m.firstCT = createSession(t, base, testSessionRequest()).ID, map[string]uint64{}
	m.refCT = m.residency(t, d, base)
	_, m.refPlain = doJSON(t, http.MethodPost, base+"/v1/sessions/"+m.id+"/decrypt", nil, decryptRequest{Ciphertext: m.refCT}, nil)
}

// residency records the residency now serving the session: its epoch must be
// strictly above every earlier one, and its first /encrypt — drawn here —
// must differ from every earlier residency's. It returns that ciphertext.
func (m *crashModel) residency(t *testing.T, d *daemon, base string) string {
	t.Helper()
	sess := residentSession(d, m.id)
	epoch, n := sess.meta.Restores, len(m.epochs)
	if n > 0 && epoch <= m.epochs[n-1] {
		t.Fatalf("restore epoch went %d -> %d: not strictly increasing", m.epochs[n-1], epoch)
	}
	ct := encryptValues(t, base, m.id, []complex128{1, 2i, -3, 0.5}).Ciphertext
	if prev, dup := m.firstCT[ct]; dup {
		t.Fatalf("epochs %d and %d produced the same first /encrypt ciphertext: encryption randomness replayed", prev, epoch)
	}
	m.epochs = append(m.epochs, epoch)
	m.firstCT[ct] = epoch
	m.lastSess = sess
	return ct
}

// eval posts a keyed eval under a never-used key. It reports false — and
// records nothing — if the crash instant fell inside the request: in the
// simulated world that response was never delivered.
func (m *crashModel) eval(t *testing.T, d *daemon, base string, c *crashRig) bool {
	t.Helper()
	key := fmt.Sprintf("k%d", m.nextKey)
	m.nextKey++
	body, replayed := keyedEval(t, base, m.id, key, m.refCT)
	if c != nil && c.fired() {
		return false
	}
	if replayed {
		t.Fatalf("fresh key %s was answered with a replay", key)
	}
	m.released = append(m.released, crashReleased{key, body})
	// A new session object means a restore happened since the last response.
	if residentSession(d, m.id) != m.lastSess {
		m.residency(t, d, base)
	}
	return true
}

// run drives evict/restore rounds until the rig fires: keyed evals past the
// dedup window (so the ring wraps), then an evict.
func (m *crashModel) run(t *testing.T, d *daemon, base string, c *crashRig) {
	t.Helper()
	for round := 0; round < 3; round++ {
		for i := 0; i < 3; i++ {
			if !m.eval(t, d, base, c) {
				return
			}
		}
		evictNow(t, d, m.id)
		if c.fired() {
			return
		}
	}
	// One more restore so the last round's evict is exercised.
	m.eval(t, d, base, c)
}

// verify holds a daemon started on a crash-instant disk to the contract:
// the session recovers (never a wrong decrypt), and every keyed eval inside
// the dedup window whose response had been released replays — marked, and
// counted by fastd.idem.replays — with the bytes released before the crash.
// The newest window slot may be taken by the request the crash interrupted
// after its record was written, so IdemCap-1 keys are guaranteed.
func (m *crashModel) verify(t *testing.T, d *daemon, base string) {
	t.Helper()
	status, plain := doJSON(t, http.MethodPost, base+"/v1/sessions/"+m.id+"/decrypt", nil, decryptRequest{Ciphertext: m.refCT}, nil)
	if status != http.StatusOK {
		t.Fatalf("session did not recover: decrypt status %d: %s", status, plain)
	}
	if !bytes.Equal(plain, m.refPlain) {
		t.Fatal("recovered session decrypts a pre-crash ciphertext differently")
	}
	from := max(0, len(m.released)-(crashIdemCap-1))
	for _, r := range m.released[from:] {
		replays := d.mIdemReplays.Value()
		body, replayed := keyedEval(t, base, m.id, r.key, m.refCT)
		if !replayed || d.mIdemReplays.Value() != replays+1 {
			t.Fatalf("key %s: its response had been released, but the retry was not a replay", r.key)
		}
		if !bytes.Equal(body, r.body) {
			t.Fatalf("key %s: replay differs from the released response", r.key)
		}
	}
}

// TestCrashPointsRecoverAndReplay: one subtest per durability boundary.
func TestCrashPointsRecoverAndReplay(t *testing.T) {
	for _, point := range crashPoints {
		t.Run(point, func(t *testing.T) {
			root := t.TempDir()
			c := &crashRig{point: point, src: filepath.Join(root, "a"), dst: filepath.Join(root, "b")}
			dA, tsA := newCrashDaemon(t, c.src, c)
			m := &crashModel{}
			m.create(t, dA, tsA.URL)
			c.arm()
			m.run(t, dA, tsA.URL, c)
			c.mustHaveFired(t)
			dB, tsB := newCrashDaemon(t, c.dst, nil)
			m.verify(t, dB, tsB.URL)
			// A fresh eval checks the epoch moved strictly up and drew
			// fresh randomness.
			m.eval(t, dB, tsB.URL, nil)
		})
	}
}

// TestCrashLoopEpochStrictlyIncreasing chains two laps of kill/restart
// cycles, each dying at the next boundary in turn (second hit on the second
// lap), with evict/restore rounds in between. Across the whole chain the
// restore epoch only ever goes up, no two epochs produce the same first
// /encrypt bytes, and every daemon replays what its predecessors released.
func TestCrashLoopEpochStrictlyIncreasing(t *testing.T) {
	root := t.TempDir()
	m := &crashModel{}
	dir := filepath.Join(root, "0")
	cycles := 2 * len(crashPoints)
	for cycle := 0; cycle < cycles; cycle++ {
		c := &crashRig{
			point: crashPoints[cycle%len(crashPoints)],
			skip:  cycle / len(crashPoints),
			src:   dir,
			dst:   filepath.Join(root, fmt.Sprint(cycle+1)),
		}
		d, ts := newCrashDaemon(t, dir, c)
		if cycle == 0 {
			m.create(t, d, ts.URL)
		} else {
			m.verify(t, d, ts.URL)
		}
		c.arm()
		m.run(t, d, ts.URL, c)
		c.mustHaveFired(t)
		ts.Close()
		dir = c.dst
	}
	d, ts := newCrashDaemon(t, dir, nil)
	m.verify(t, d, ts.URL)
	if len(m.epochs) < cycles {
		t.Fatalf("only %d distinct epochs observed over %d crash cycles", len(m.epochs), cycles)
	}
	t.Logf("%d kill cycles, %d epochs observed (last %d), %d released responses", cycles, len(m.epochs), m.epochs[len(m.epochs)-1], len(m.released))
}
