package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	fast "github.com/fastfhe/fast"
)

// The envelope: how a ciphertext-bearing request body becomes ciphertexts and
// how a result becomes response bytes. The wire is JSON with base64 strings
// and does not change here; what this file removes is every pass over those
// quarter-megabyte strings that is not the one base64 pass itself. A body is
// read once, scanned in place and decoded straight out of the body slice; a
// response is rendered once into the buffer that is sent (and journaled).
//
// Pooled buffers, and who returns each (DESIGN.md "Envelope" has the table):
// the handler returns the request body once the envelope is compiled (nothing
// compiled views it); readCiphertext and renderCiphertext return their
// wire-format scratch themselves; sendRendered returns a response after its
// single Write — unless the idempotency recorder took it, in which case the
// journal and the idempotency table own it and it is never returned. A
// dropped buffer is only garbage; the failure to fear is a use after return,
// so under `go test` a returned buffer is first overwritten with 0xA5 and the
// byte-identity suites fail on any such use.

var poisonReturned = testing.Testing()

// bufPool recycles buffers of one role. Requests of one parameter set repeat
// their sizes exactly, so a role's pool settles on buffers of the right size;
// one too small — or more than twice too large, which would bloat whatever
// retains it — is left to the collector and replaced.
type bufPool struct{ p sync.Pool }

var bodyBufs, wireBufs, respBufs bufPool

// get returns an empty buffer with at least n bytes of capacity.
func (bp *bufPool) get(n int) *[]byte {
	if b, _ := bp.p.Get().(*[]byte); b != nil && cap(*b) >= n && cap(*b) <= 2*n+4096 {
		*b = (*b)[:0]
		return b
	}
	b := make([]byte, 0, n)
	return &b
}

func (bp *bufPool) put(b *[]byte) {
	if poisonReturned {
		full := (*b)[:cap(*b)]
		for i := range full {
			full[i] = 0xA5
		}
	}
	bp.p.Put(b)
}

// maxBodyPresize caps what a Content-Length header alone can make the daemon
// allocate; a larger body grows the buffer as its bytes actually arrive.
const maxBodyPresize = 4 << 20

// readRequestBody reads the whole body into a pooled buffer sized from
// Content-Length. The caller returns it with bodyBufs.put.
func readRequestBody(r *http.Request) (*[]byte, error) {
	n := min(max(r.ContentLength, 0), maxBodyPresize)
	bp := bodyBufs.get(int(n) + 1) // +1: the read that reports EOF needs room
	for {
		if len(*bp) == cap(*bp) {
			grown := bodyBufs.get(2 * cap(*bp))
			*grown = append(*grown, *bp...)
			bodyBufs.put(bp)
			bp = grown
		}
		m, err := r.Body.Read((*bp)[len(*bp):cap(*bp)])
		*bp = (*bp)[:len(*bp)+m]
		if err == io.EOF {
			return bp, nil
		}
		if err != nil {
			bodyBufs.put(bp)
			return nil, err
		}
	}
}

// ---- Scanner ---------------------------------------------------------------

// envScanner walks the top-level object of a request body in place. It is
// strict — it accepts what encoding/json accepts into the struct the handlers
// used to decode into, and nothing else (FuzzEvalEnvelope holds it to that) —
// but it does the work of encoding/json only where that is cheap: values it
// has no use for, and "program", go through the standard decoder; a string
// with anything unusual in it is unquoted by encoding/json; only a plain
// string — every base64 string — is returned as a view of the body.
//
//	body    = ws ( "null" | object ) ws            (then nothing, or for a
//	                                                 stream decoder anything)
//	object  = "{" ws [ member { ws "," ws member } ] ws "}"
//	member  = string ws ":" ws value
//	ws      = { " " | "\t" | "\r" | "\n" }
type envScanner struct {
	b []byte
	i int
}

func (s *envScanner) skipSpace() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\r' || s.b[s.i] == '\n') {
		s.i++
	}
}

// at reports whether the cursor is on byte c.
func (s *envScanner) at(c byte) bool { return s.i < len(s.b) && s.b[s.i] == c }

// unexpected is the error for a cursor that is not on what the grammar (or
// the Go type the value lands in) wants.
func (s *envScanner) unexpected(want string) error {
	if s.i >= len(s.b) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q at offset %d, want %s", s.b[s.i], s.i, want)
}

// null consumes a JSON null at the cursor, if there is one. Whatever follows
// it is the caller's next token, so "nullx" fails there.
func (s *envScanner) null() bool {
	if bytes.HasPrefix(s.b[s.i:], []byte("null")) {
		s.i += 4
		return true
	}
	return false
}

// object consumes the object at the cursor, calling member for each of its
// members with the cursor on the first byte of the member's value, which
// member must consume. open=false with a nil error is JSON null, which
// encoding/json decodes into a struct or map by leaving it alone; any other
// value is a syntax or a type error, and encoding/json fails both.
func (s *envScanner) object(member func(key []byte) error) (open bool, err error) {
	if s.skipSpace(); !s.at('{') {
		if s.null() {
			return false, nil
		}
		return false, s.unexpected("an object")
	}
	s.i++
	for first := true; ; first = false {
		s.skipSpace()
		switch {
		case s.at('}'):
			s.i++
			return true, nil
		case first:
		case s.at(','):
			s.i++
			s.skipSpace()
		default:
			return true, s.unexpected(`"," or "}"`)
		}
		if !s.at('"') {
			return true, s.unexpected("an object key")
		}
		key, err := s.str()
		if err != nil {
			return true, err
		}
		if s.skipSpace(); !s.at(':') {
			return true, s.unexpected(`":"`)
		}
		s.i++
		s.skipSpace()
		if err := member(key); err != nil {
			return true, err
		}
	}
}

// str consumes the JSON string at the cursor and returns its value: a view
// of the body when the contents are plain (see plainASCII), which is found
// with two vectorised passes and no copy; otherwise — an escape such as "\/",
// a non-ASCII or control byte — whatever encoding/json makes of the literal.
func (s *envScanner) str() ([]byte, error) {
	start, end := s.i, s.i+1
	for {
		j := bytes.IndexByte(s.b[end:], '"')
		if j < 0 {
			return nil, errors.New("unexpected end of JSON input")
		}
		end += j
		k := end // an odd run of backslashes before the quote escapes it
		for k > start+1 && s.b[k-1] == '\\' {
			k--
		}
		if (end-k)%2 == 0 {
			break
		}
		end++
	}
	s.i = end + 1
	if seg := s.b[start+1 : end]; plainASCII(seg) {
		return seg, nil
	}
	var v string
	if err := json.Unmarshal(s.b[start:end+1], &v); err != nil {
		return nil, err
	}
	return []byte(v), nil
}

// plainASCII reports whether b holds only printable ASCII and no backslash
// (it cannot hold a quote: it was cut at the first one). The bytes of such a
// JSON string literal are the string's value. Eight bytes at a time:
// w&highs finds a byte >= 0x80, (w-0x20..)&^w one < 0x20, and the same
// borrow trick on w^'\\'.. a byte equal to the backslash.
func plainASCII(b []byte) bool {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	for ; len(b) >= 8; b = b[8:] {
		w := binary.LittleEndian.Uint64(b)
		x := w ^ (ones * '\\')
		if (w|(w-ones*0x20)&^w|(x-ones)&^x)&highs != 0 {
			return false
		}
	}
	for _, c := range b {
		if c < 0x20 || c >= 0x80 || c == '\\' {
			return false
		}
	}
	return true
}

// strOrNull consumes a string value. null=true is a JSON null, which
// encoding/json decodes into a string by leaving it alone; anything else is
// a type (or syntax) error.
func (s *envScanner) strOrNull() (v []byte, null bool, err error) {
	if s.at('"') {
		v, err = s.str()
		return v, false, err
	}
	if s.null() {
		return nil, true, nil
	}
	return nil, false, s.unexpected("a string")
}

// raw consumes any one JSON value with the standard decoder — which
// validates it — and returns its extent in the body.
func (s *envScanner) raw() ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(s.b[s.i:]))
	var v json.RawMessage
	if err := dec.Decode(&v); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	start := s.i
	s.i += int(dec.InputOffset())
	return s.b[start:s.i], nil
}

// end checks that nothing but whitespace follows the top-level value —
// json.Unmarshal's rule, which the eval body has always been held to.
func (s *envScanner) end() error {
	if s.skipSpace(); s.i < len(s.b) {
		return fmt.Errorf("invalid character %q after top-level value", s.b[s.i])
	}
	return nil
}

// foldsTo reports whether an object key selects the struct field tagged
// name (lower-case ASCII) the way encoding/json matches keys to fields:
// exactly, or under Unicode simple case folding.
func foldsTo(key []byte, name string) bool { return strings.EqualFold(string(key), name) }

// envInput is one member of an eval body's "inputs": a register name and the
// base64 text of its ciphertext (a view of the body, or an unquoted copy).
type envInput struct {
	name string
	b64  []byte
}

// evalEnvelope is what an eval body says: the fields of the struct
// {Inputs map[string]string `json:"inputs"`; Program json.RawMessage
// `json:"program"`} after json.Unmarshal, without the map, the strings or the
// three passes over them.
type evalEnvelope struct {
	inputs  []envInput // a repeated name keeps its last value
	program []byte     // extent of the value in the body; nil when absent
}

// find returns the index of name's entry, or -1.
func (e *evalEnvelope) find(name string) int {
	for i := range e.inputs {
		if e.inputs[i].name == name {
			return i
		}
	}
	return -1
}

func (e *evalEnvelope) input(name string) ([]byte, bool) {
	if i := e.find(name); i >= 0 {
		return e.inputs[i].b64, true
	}
	return nil, false
}

// set records name's value the way a map assignment would.
func (e *evalEnvelope) set(name string, b64 []byte) {
	if i := e.find(name); i >= 0 {
		e.inputs[i].b64 = b64
		return
	}
	e.inputs = append(e.inputs, envInput{name, b64})
}

// scanEvalEnvelope scans an eval request body. The envelope views body.
// "inputs" fills the way encoding/json fills a map[string]string: an object
// adds to (and overwrites in) what an earlier "inputs" left, null empties it,
// a null element is "".
func scanEvalEnvelope(body []byte) (env evalEnvelope, err error) {
	s := envScanner{b: body}
	_, err = s.object(func(key []byte) (err error) {
		switch {
		case foldsTo(key, "inputs"):
			var open bool
			if open, err = s.object(func(name []byte) error {
				v, _, err := s.strOrNull()
				env.set(string(name), v)
				return err
			}); !open {
				env.inputs = nil
			}
		case foldsTo(key, "program"):
			env.program, err = s.raw()
		default:
			_, err = s.raw()
		}
		return err
	})
	if err == nil {
		err = s.end()
	}
	return env, err
}

// scanDecryptEnvelope scans a decrypt request body — {"ciphertext": string} —
// with the semantics of the json.Decoder it replaces: the first JSON value is
// the request and bytes after it are not read. The result views body.
func scanDecryptEnvelope(body []byte) (b64 []byte, err error) {
	s := envScanner{b: body}
	_, err = s.object(func(key []byte) error {
		if !foldsTo(key, "ciphertext") {
			_, err := s.raw()
			return err
		}
		v, null, err := s.strOrNull()
		if !null {
			b64 = v
		}
		return err
	})
	return b64, err
}

// ---- Ciphertexts in and out ------------------------------------------------

// readCiphertext decodes one base64 ciphertext: straight from b64 (usually a
// view of the request body) into a pooled buffer, and from there into a
// validated ciphertext that owns its memory. digest, when non-nil, receives
// the SHA-256 of the wire bytes — the input's batch-merge identity.
func readCiphertext(fctx *fast.Context, b64 []byte, digest *[sha256.Size]byte) (*fast.Ciphertext, error) {
	wire := wireBufs.get(base64.StdEncoding.DecodedLen(len(b64)))
	defer wireBufs.put(wire)
	n, err := base64.StdEncoding.Decode((*wire)[:cap(*wire)], b64)
	if err != nil {
		return nil, fmt.Errorf("ciphertext base64: %w", err)
	}
	*wire = (*wire)[:n]
	if digest != nil {
		*digest = sha256.Sum256(*wire)
	}
	return fctx.ReadCiphertextBytes(*wire)
}

// renderCiphertext renders the success body of /encrypt and /eval into a
// pooled buffer: {"ciphertext":"<base64 of the wire format>","level":L,
// "scale":S} and a newline — byte for byte what json.NewEncoder wrote for
// the struct with those three fields (TestResponseBytesMatchEncodingJSON).
// The buffer goes to sendRendered.
func renderCiphertext(ct *fast.Ciphertext) *[]byte {
	const head = `{"ciphertext":"`
	wire := wireBufs.get(ct.WireSize())
	*wire = ct.AppendBinary(*wire)
	out := respBufs.get(len(head) + base64.StdEncoding.EncodedLen(len(*wire)) + 64)
	b := append(*out, head...)
	b = base64.StdEncoding.AppendEncode(b, *wire)
	wireBufs.put(wire)
	b = append(b, `","level":`...)
	b = strconv.AppendInt(b, int64(ct.Level()), 10)
	b = append(b, `,"scale":`...)
	b = appendJSONFloat(b, ct.Scale())
	*out = append(b, "}\n"...)
	return out
}

// appendJSONFloat formats a finite float64 as encoding/json does: shortest
// round-trip digits, exponent form below 1e-6 and from 1e21, and a two-digit
// exponent's leading zero dropped (e-07 -> e-7).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && (b[n-3] == '-' || b[n-3] == '+') && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

const jsonContentType = "application/json; charset=utf-8"

// sendRendered sends a 200 whose body renderCiphertext built: with its
// Content-Length, in one Write, then the buffer goes back to its pool. The
// idempotency recorder instead takes the buffer over as the recorded body
// (see the ownership table above).
func sendRendered(w http.ResponseWriter, body *[]byte) {
	w.Header().Set("Content-Type", jsonContentType)
	if rr, ok := w.(*responseRecorder); ok {
		rr.body = *body
		return
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(*body)))
	_, _ = w.Write(*body) // a failed write is the client's disconnect
	respBufs.put(body)
}
