package main

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strings"
	"testing"

	fast "github.com/fastfhe/fast"
	"github.com/fastfhe/fast/internal/ring/kerneltest"
)

// The reference envelope: the encoding/json structs and the
// bytes.Buffer -> EncodeToString chain the daemon used before envelope.go.
// They are deleted from production and kept here as the oracle — the suites
// build their expected bytes with them, FuzzEvalEnvelope holds the scanner to
// them, and cmd/fastload and benchmark/ keep their own encoding/json clients
// for the same reason: an independent check that the wire did not move.

type evalWire struct {
	Inputs  map[string]string `json:"inputs"` // register -> base64 ciphertext
	Program json.RawMessage   `json:"program"`
}

type decryptRequest struct {
	Ciphertext string `json:"ciphertext"`
}

type ciphertextResponse struct {
	Ciphertext string  `json:"ciphertext"` // base64 of the wire format
	Level      int     `json:"level"`
	Scale      float64 `json:"scale"`
}

func encodeCiphertext(ct *fast.Ciphertext) (ciphertextResponse, error) {
	var buf bytes.Buffer
	if err := ct.Serialize(&buf); err != nil {
		return ciphertextResponse{}, err
	}
	return ciphertextResponse{
		Ciphertext: base64.StdEncoding.EncodeToString(buf.Bytes()),
		Level:      ct.Level(),
		Scale:      ct.Scale(),
	}, nil
}

func decodeCiphertext(fctx *fast.Context, b64 string) (*fast.Ciphertext, error) {
	raw, err := base64.StdEncoding.DecodeString(b64)
	if err != nil {
		return nil, fmt.Errorf("ciphertext base64: %w", err)
	}
	return fctx.ReadCiphertext(bytes.NewReader(raw))
}

// FuzzEvalEnvelope: the scanner accepts exactly the bodies json.Unmarshal
// accepts into evalWire and extracts the same inputs and program from them;
// the decrypt scanner likewise against a json.Decoder into decryptRequest.
// Every body is checked on every kernel path (plainASCII has a byte-lane
// kernel on avx512ifma).
func FuzzEvalEnvelope(f *testing.F) {
	prog := `{"version":2,"inputs":["x"],"ops":[{"op":"rotate","a":"x","r":1,"out":"y"}],"output":"y"}`
	for _, seed := range []string{
		`{"inputs":{"x":"QUJD"},"program":` + prog + `}`,
		`{"ciphertext":"QUJD"}`,
		// duplicate keys: the last wins, "inputs" objects merge, null empties
		`{"inputs":{"x":"AAAA","x":"BBBB"},"program":1,"program":` + prog + `}`,
		`{"inputs":{"x":"AAAA"},"inputs":{"y":"BBBB"},"inputs":{"x":"CCCC"}}`,
		`{"inputs":{"x":"AAAA"},"inputs":null,"program":null}`,
		`{"ciphertext":"AAAA","ciphertext":null}`,
		// escapes inside base64: the slow path
		`{"inputs":{"x":"QU\/D+"},"program":{}}`,
		`{"inputs":{"x":"a\\\"b\\\\"},"inputs":{"y":"\\"}}`,
		`{"inputs":{"x":null,"":""}}`,
		// field names match case-insensitively, under Unicode folding too
		`{"INPUTS":{"x":"AAAA"},"Program":[],"input` + "ſ" + `":{"k":"v"},"Kiphertext":1}`,
		// unknown and nested fields
		`{"trace":{"a":[1,2,{"b":null}],"c":"d"},"inputs":{"x":"AAAA"},"n":-1.5e+3,"t":true}`,
		// whitespace, trailing bytes
		" \t\r\n{ \"inputs\" : { \"x\" : \"AAAA\" } , \"program\" : { } } \n",
		`{"inputs":{"x":"AAAA"}} x`,
		`{"ciphertext":"AAAA"} trailing`,
		`{"inputs":{"x":"AAAA"}}{"inputs":{}}`,
		// invalid UTF-8, raw control bytes, non-ASCII
		"{\"inputs\":{\"x\xff\":\"A\xc3\x28\"}}",
		"{\"inputs\":{\"x\":\"AA\nAA\"}}",
		`{"inputs":{"é":"ü"}}`,
		// type errors and broken syntax
		`{"inputs":{"x":5}}`, `{"inputs":[]}`, `{"inputs":"x"}`, `[]`, `null`, ` null `, `nullx`, `5`, `"s"`, ``,
		`{"inputs":{"x":"AAAA",}}`, `{,}`, `{"inputs"}`, `{"inputs":{"x":"AAAA"}`, `{"a":nul}`, `{"a":1 "b":2}`,
		`{"inputs":{"x":"AAA`,
		`{"inputs":{"x":"` + strings.Repeat("A", 1<<20),
		`{"inputs":{"x":"` + strings.Repeat(`\"`, 1<<10) + `"}}`,
		// a long plain string; an escape or a control byte past its first 64-byte block
		`{"inputs":{"x":"` + strings.Repeat("QUJD", 50) + `"}}`,
		`{"inputs":{"x":"` + strings.Repeat("QUJD", 25) + `\/` + strings.Repeat("QUJD", 25) + `"}}`,
		"{\"inputs\":{\"x\":\"" + strings.Repeat("QUJD", 30) + "\x01QUJD\"}}",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		kerneltest.EachPath(t, func(t *testing.T) { checkEnvelope(t, body) })
	})
}

// checkEnvelope holds both scanners to encoding/json on one body.
func checkEnvelope(t *testing.T, body []byte) {
	t.Helper()
	var ref evalWire
	refErr := json.Unmarshal(body, &ref)
	env, err := scanEvalEnvelope(body)
	if (refErr == nil) != (err == nil) {
		t.Fatalf("eval body %q: encoding/json says %v, the scanner says %v", body, refErr, err)
	}
	if err == nil {
		if !bytes.Equal(env.program, ref.Program) {
			t.Fatalf("eval body %q: program %q, want %q", body, env.program, ref.Program)
		}
		if len(env.inputs) != len(ref.Inputs) {
			t.Fatalf("eval body %q: inputs %v, want %v", body, env.inputs, ref.Inputs)
		}
		for name, want := range ref.Inputs {
			if got, ok := env.input(name); !ok || string(got) != want {
				t.Fatalf("eval body %q: input %q = %q (present %v), want %q", body, name, got, ok, want)
			}
		}
	}

	var dref decryptRequest
	drefErr := json.NewDecoder(bytes.NewReader(body)).Decode(&dref)
	b64, derr := scanDecryptEnvelope(body)
	if (drefErr == nil) != (derr == nil) {
		t.Fatalf("decrypt body %q: encoding/json says %v, the scanner says %v", body, drefErr, derr)
	}
	if derr == nil && string(b64) != dref.Ciphertext {
		t.Fatalf("decrypt body %q: ciphertext %q, want %q", body, b64, dref.Ciphertext)
	}
}

// wireCiphertext builds the wire bytes of an all-zero ciphertext at the given
// level and scale — any level and any finite positive scale pass validation.
func wireCiphertext(n, level int, scale float64) []byte {
	b := []byte{0x02, 1}
	b = binary.LittleEndian.AppendUint32(b, uint32(level))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(scale))
	for c := 0; c < 2; c++ {
		b = append(b, 0x01, 1)
		b = binary.LittleEndian.AppendUint32(b, uint32(level+1))
		b = binary.LittleEndian.AppendUint32(b, uint32(n))
		b = append(b, make([]byte, 8*(level+1)*n)...)
	}
	return b
}

// TestResponseBytesMatchEncodingJSON: the direct writer produces, byte for
// byte, what json.NewEncoder wrote for ciphertextResponse — across the float
// formats encoding/json switches between, both ends of the level range and a
// fresh encryption's residues, on every kernel path.
func TestResponseBytesMatchEncodingJSON(t *testing.T) {
	fctx, err := fast.NewContext(fast.ContextConfig{LogN: 9, Levels: 3, LogScale: 36, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	scales := []float64{
		1 << 40, float64(1<<36) * float64(1<<36) / 68719403009, // fresh; after a rescale by a 36-bit prime
		1e21, 9.999999999999999e20, 1e-7, 1e-6, 1.5e-9, 1e100, 3, 0.1, math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	var cts []*fast.Ciphertext
	for _, level := range []int{0, fctx.MaxLevel()} {
		for _, scale := range scales {
			ct, err := fctx.ReadCiphertextBytes(wireCiphertext(1<<9, level, scale))
			if err != nil {
				t.Fatalf("level %d scale %g: %v", level, scale, err)
			}
			cts = append(cts, ct)
		}
	}
	fresh, err := fctx.Encrypt([]complex128{1, -2i, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	cts = append(cts, fresh)
	kerneltest.EachPath(t, func(t *testing.T) {
		for _, ct := range cts {
			ref, err := encodeCiphertext(ct)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(ref); err != nil {
				t.Fatal(err)
			}
			got := renderCiphertext(ct)
			if !bytes.Equal(*got, want.Bytes()) {
				t.Errorf("level %d scale %g: writer tail %q, encoding/json tail %q",
					ct.Level(), ct.Scale(), tail(*got), tail(want.Bytes()))
			}
			respBufs.put(got)
		}
	})
}

func tail(b []byte) []byte { return b[max(0, len(b)-60):] }

// TestPooledBuffersArePoisoned: under `go test` a returned buffer is
// overwritten, so a use after return cannot read plausible bytes — the
// byte-identity suites (chaos overload, noisy tenant, crash points,
// sequential-vs-batched) are what would notice.
func TestPooledBuffersArePoisoned(t *testing.T) {
	var bp bufPool
	b := bp.get(64)
	*b = append(*b, "a response body"...)
	view := *b
	bp.put(b)
	for i, c := range view[:cap(view)] {
		if c != 0xA5 {
			t.Fatalf("byte %d of a returned buffer is %#x, want the 0xA5 poison", i, c)
		}
	}
}

// TestEvalAllocBudget pins the envelope's gain as a number the default test
// leg gates: heap bytes allocated per served eval (runtime.MemStats.TotalAlloc
// delta over 200 evals of the benchmark's rotation fan-out at log_n 11,
// client included) stay under 2.0 MB. The parent of this test measured
// 3.8 MB; what remains is the evaluator's fresh result polynomials (three
// hoisted rotations, two adds, an add-const: ~1.2 MB, ROADMAP 4a), the input
// ciphertext's own 192 KiB, and this test's client buffering the 256 KiB
// reply.
func TestEvalAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime's shadow allocations are not the daemon's")
	}
	_, ts := newTestDaemon(t, daemonConfig{Workers: 1})
	req := testSessionRequest()
	req.LogN, req.Levels = 11, 5
	sr := createSession(t, ts.URL, req)
	ct := encryptValues(t, ts.URL, sr.ID, make([]complex128, sr.Slots))
	body, err := json.Marshal(evalOf(fast.NewProgram().In("x").
		Rotate("a", "x", 1).Rotate("b", "x", 4).Rotate("c", "x", -1).
		Add("s1", "a", "b").Add("s2", "s1", "c").AddConst("out", "s2", 0.5).
		Return("out"), ct.Ciphertext))
	if err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/v1/sessions/" + sr.ID + "/eval"
	reply := make([]byte, 0, 512<<10)
	eval := func() {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		buf := bytes.NewBuffer(reply[:0])
		if _, err := buf.ReadFrom(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("eval: status %d err %v", resp.StatusCode, err)
		}
	}
	for i := 0; i < 10; i++ {
		eval() // plan cache, pools and connection warm
	}
	const evals = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < evals; i++ {
		eval()
	}
	runtime.ReadMemStats(&after)
	perEval := float64(after.TotalAlloc-before.TotalAlloc) / evals
	t.Logf("%.2f MB allocated per served eval (%d collections over %d evals)",
		perEval/1e6, after.NumGC-before.NumGC, evals)
	if perEval > 2.0e6 {
		t.Fatalf("%.2f MB allocated per served eval, budget 2.0 MB", perEval/1e6)
	}
}
