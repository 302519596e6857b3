package main

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	fast "github.com/fastfhe/fast"
)

// buildFastd compiles cmd/fastd into the benchmark's output directory and
// returns the binary's path. `go build` decides staleness from content, so a
// binary left by an earlier commit is rebuilt and an up-to-date one costs a
// fraction of a second. Build time is outside every metric.
func buildFastd(root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "bin", "fastd")
	tmp := filepath.Join(outDir, "gotmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	// -buildvcs=false: the driver's checkout is not a git repository, and a
	// git directory further up must not be able to fail or stamp the build.
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", bin, "./cmd/fastd")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOTMPDIR="+tmp)
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build fastd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one spawned fastd process.
type daemon struct {
	cmd     *exec.Cmd
	base    string  // http://127.0.0.1:port
	readyMS float64 // spawn -> first 200 on /readyz
	stderr  *bytes.Buffer
}

// spawnFastd starts bin on a free port with the given flags and waits until
// /readyz answers 200. The child dies with the harness (Pdeathsig) even if
// the harness is killed before its deferred teardown runs.
func spawnFastd(bin, stateDir string, flags ...string) (*daemon, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-state-dir", stateDir, "-access-log", "none"}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, stderr: &bytes.Buffer{}}
	cmd.Stderr = d.stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	// First stdout line: "fastd serving on http://127.0.0.1:PORT (...)".
	line, err := bufio.NewReader(stdout).ReadString('\n')
	go func() { _, _ = io.Copy(io.Discard, stdout) }() // keep the pipe drained; ends with the process
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("fastd did not announce its address: %v; stderr: %s", err, d.stderr)
	}
	i := strings.Index(line, "http://")
	if i < 0 {
		d.stop()
		return nil, fmt.Errorf("unexpected fastd banner %q", line)
	}
	d.base = strings.Fields(line[i:])[0]
	cl := &http.Client{Timeout: 2 * time.Second}
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := cl.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("fastd not ready after 10s; stderr: %s", d.stderr)
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.readyMS = float64(time.Since(start).Nanoseconds()) / 1e6
	cl.CloseIdleConnections()
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop kills the process and waits until it has ended. Safe to call twice.
func (d *daemon) stop() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Kill()
	_ = d.cmd.Wait()
}

// client is one FHE client: a single keep-alive connection to one daemon.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer // response body scratch, reused across calls
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns status, headers and the body. The body
// slice aliases the client's scratch buffer and is valid until the next call.
func (c *client) do(method, path string, body []byte, idemKey string) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, c.buf.Bytes(), nil
}

// postJSON is the set-up path helper: marshal in, expect 200, unmarshal out.
func (c *client) postJSON(path string, in, out any) error {
	raw, err := json.Marshal(in)
	if err != nil {
		return err
	}
	status, _, body, err := c.do(http.MethodPost, path, raw, "")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %s", path, status, truncate(body, 200))
	}
	return json.Unmarshal(body, out)
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		return string(b[:n]) + "..."
	}
	return string(b)
}

// Wire shapes of the fastd JSON API (see cmd/fastd's package comment).
type sessionSpec struct {
	LogN        int   `json:"log_n"`
	Levels      int   `json:"levels"`
	LogScale    int   `json:"log_scale"`
	Rotations   []int `json:"rotations"`
	Conjugation bool  `json:"conjugation"`
	EnableKLSS  bool  `json:"enable_klss"`
	Seed        int64 `json:"seed"`
}

type sessionInfo struct {
	ID    string `json:"id"`
	Slots int    `json:"slots"`
}

type cnum struct {
	Re float64 `json:"re"`
	Im float64 `json:"im"`
}

type ctReply struct {
	Ciphertext string `json:"ciphertext"`
}

func toWire(v []complex128) []cnum {
	out := make([]cnum, len(v))
	for i, x := range v {
		out[i] = cnum{real(x), imag(x)}
	}
	return out
}

// sessionSpecFor maps a library config onto the session-create request, so
// the daemon and an in-process context can be built from one description.
func sessionSpecFor(cfg fast.ContextConfig) sessionSpec {
	return sessionSpec{
		LogN: cfg.LogN, Levels: cfg.Levels, LogScale: cfg.LogScale, Rotations: cfg.Rotations,
		Conjugation: cfg.Conjugation, EnableKLSS: cfg.EnableKLSS, Seed: cfg.Seed,
	}
}

func (c *client) createSession(spec sessionSpec) (sessionInfo, error) {
	var si sessionInfo
	err := c.postJSON("/v1/sessions", spec, &si)
	return si, err
}

// encrypt returns the base64 ciphertext of values under session id.
func (c *client) encrypt(id string, values []complex128) (string, error) {
	var r ctReply
	err := c.postJSON("/v1/sessions/"+id+"/encrypt", map[string]any{"values": toWire(values)}, &r)
	return r.Ciphertext, err
}

// decrypt returns the slots of a base64 ciphertext.
func (c *client) decrypt(id, ctB64 string) ([]complex128, error) {
	var r struct {
		Values []cnum `json:"values"`
	}
	if err := c.postJSON("/v1/sessions/"+id+"/decrypt", map[string]string{"ciphertext": ctB64}, &r); err != nil {
		return nil, err
	}
	out := make([]complex128, len(r.Values))
	for i, v := range r.Values {
		out[i] = complex(v.Re, v.Im)
	}
	return out, nil
}

// evalBody pre-encodes an eval request: one input ciphertext, one v2 program.
func evalBody(ctB64 string, prog *fast.Program) ([]byte, error) {
	rawProg, err := json.Marshal(prog)
	if err != nil {
		return nil, err
	}
	return json.Marshal(map[string]any{
		"inputs":  map[string]string{"x": ctB64},
		"program": json.RawMessage(rawProg),
	})
}

// replyCiphertext extracts the base64 ciphertext from an eval response body.
func replyCiphertext(body []byte) (string, error) {
	var r ctReply
	if err := json.Unmarshal(body, &r); err != nil {
		return "", err
	}
	if _, err := base64.StdEncoding.DecodeString(r.Ciphertext); err != nil {
		return "", fmt.Errorf("eval reply is not base64: %w", err)
	}
	return r.Ciphertext, nil
}

// scrape is the part of fastd's /snapshot.json the harness reads.
type scrape struct {
	Counters   map[string]uint64 `json:"counters"`
	Gauges     map[string]int64  `json:"gauges"`
	Histograms map[string]struct {
		Count uint64 `json:"count"`
		Sum   int64  `json:"sum"`
	} `json:"histograms"`
}

func (c *client) scrape() (*scrape, error) {
	status, _, body, err := c.do(http.MethodGet, "/snapshot.json", nil, "")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /snapshot.json: status %d", status)
	}
	var s scrape
	if err := json.Unmarshal(body, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// counterDelta is after-before of one counter (0 if either scrape lacks it).
func counterDelta(before, after *scrape, name string) float64 {
	return float64(after.Counters[name]) - float64(before.Counters[name])
}

// histDelta is the (count, sum) growth of one histogram between two scrapes.
func histDelta(before, after *scrape, name string) (count, sum float64) {
	a, b := after.Histograms[name], before.Histograms[name]
	return float64(a.Count) - float64(b.Count), float64(a.Sum) - float64(b.Sum)
}
