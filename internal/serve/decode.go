package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/bits"
	"net/http"
	"reflect"
	"strconv"
	"sync"
)

// The request bodies' decoder. A body is read once into a recycled
// buffer and decoded in one pass over it, with no reflection, when it
// has the shape a well-formed body has: every key one of its struct's
// JSON names, exactly and at most once per object; strings with no
// escape and only printable ASCII; numbers without exponent that fit
// their field; true and false; no null. Anything else — every error
// included — falls back: the destination is zeroed and the same bytes
// go to encoding/json's Decoder with DisallowUnknownFields, followed by
// a check that only whitespace follows the value, and that pair's value
// or refusal is the answer. So every refusal is worded by encoding/json
// itself. FuzzDecodeBody holds the whole to that pair.

// maxPooledBytes bounds the scratch a recycled reader keeps: one huge
// body does not pin its buffer for the server's lifetime.
const maxPooledBytes = 1 << 20

// errTrailing refuses a body with more than whitespace after its value.
var errTrailing = errors.New("data after the JSON value")

// bodyValue is a request body type: it decodes itself from a reader
// positioned at its value, on the fast path.
type bodyValue interface{ decode(r *reader) }

// readers recycles decoders and their buffers across requests.
var readers = sync.Pool{New: func() any { return new(reader) }}

// decodeBody reads a request body, bounded by maxBodyBytes, and decodes
// it into v, a zero value, strictly: one JSON value, no unknown field,
// nothing but whitespace after it.
func decodeBody(w http.ResponseWriter, r *http.Request, v bodyValue) *apiError {
	rd := readers.Get().(*reader)
	defer rd.release()
	body, err := rd.read(http.MaxBytesReader(w, r.Body, maxBodyBytes), r.ContentLength)
	if err == nil {
		err = rd.decode(body, v)
	}
	if err != nil {
		return &apiError{status: 400, msg: "bad request body: " + err.Error()}
	}
	return nil
}

// reader decodes one JSON body held in memory.
type reader struct {
	data   []byte
	off    int
	buf    []byte       // the body
	points [][2]float64 // a polygon being decoded
}

// fallback ends a fast-path decode: the body is not of the shape it
// takes.
type fallback struct{}

// read reads body whole into the reader's buffer, sized from the
// request's Content-Length when it names one up to maxPooledBytes (a
// client's number sizes nothing past what a reader may keep).
func (r *reader) read(body io.Reader, size int64) ([]byte, error) {
	b := bytes.NewBuffer(r.buf[:0])
	if size > 0 && size < maxPooledBytes {
		b.Grow(int(size) + bytes.MinRead) // MinRead: room for the read that meets EOF
	}
	_, err := b.ReadFrom(body)
	r.buf = b.Bytes()
	return r.buf, err
}

// release returns the reader to the pool.
func (r *reader) release() {
	if cap(r.buf) > maxPooledBytes {
		r.buf = nil
	}
	if cap(r.points)*16 > maxPooledBytes {
		r.points = nil
	}
	r.data = nil
	readers.Put(r)
}

// decode decodes data into v, a zero value: on the fast path, or else
// with encoding/json.
func (r *reader) decode(data []byte, v bodyValue) error {
	if r.fast(data, v) {
		return nil
	}
	reflect.ValueOf(v).Elem().SetZero()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errTrailing
	}
	return nil
}

// fast decodes data into v on the fast path and reports whether it
// could; if not, v may hold part of the body.
func (r *reader) fast(data []byte, v bodyValue) (ok bool) {
	r.data, r.off = data, 0
	defer func() {
		if p := recover(); p != nil && p != any(fallback{}) {
			panic(p)
		}
	}()
	v.decode(r)
	return len(bytes.TrimLeft(r.data[r.off:], " \t\r\n")) == 0
}

// fallback abandons the fast path.
func (r *reader) fallback() { panic(fallback{}) }

// peek skips whitespace and returns the next byte, which the input
// must have.
func (r *reader) peek() byte {
	for r.off < len(r.data) {
		switch c := r.data[r.off]; c {
		case ' ', '\t', '\r', '\n':
			r.off++
		default:
			return c
		}
	}
	r.fallback()
	return 0
}

// closes consumes c if it is next and reports whether it was.
func (r *reader) closes(c byte) bool {
	if r.peek() == c {
		r.off++
		return true
	}
	return false
}

// expect consumes c, which must be next.
func (r *reader) expect(c byte) {
	if !r.closes(c) {
		r.fallback()
	}
}

// more consumes the comma or the close that follows a member or an
// element and reports whether it was the comma.
func (r *reader) more(close byte) bool {
	c := r.peek()
	if c != ',' && c != close {
		r.fallback()
	}
	r.off++
	return c == ','
}

// str consumes a string with no escape and no byte outside printable
// ASCII, and returns its contents, a slice of the body.
func (r *reader) str() []byte {
	r.expect('"')
	for i := r.off; i < len(r.data) && ' ' <= r.data[i] && r.data[i] < 0x80 && r.data[i] != '\\'; i++ {
		if r.data[i] == '"' {
			s := r.data[r.off:i]
			r.off = i + 1
			return s
		}
	}
	r.fallback()
	return nil
}

// object decodes an object whose keys are each one of names, exactly
// and at most once, the value of names[i] into fields[i].
func (r *reader) object(names []string, fields ...any) {
	r.expect('{')
	var seen uint64
	for more := !r.closes('}'); more; more = r.more('}') {
		key, i := r.str(), 0
		for i < len(names) && string(key) != names[i] {
			i++
		}
		if i == len(names) || seen&(1<<i) != 0 {
			r.fallback()
		}
		seen |= 1 << i
		r.expect(':')
		r.value(fields[i])
	}
}

// decodeSlice decodes an array's elements, appended to v, which it
// returns.
func decodeSlice[T any](r *reader, v []T) []T {
	r.expect('[')
	for more := !r.closes(']'); more; more = r.more(']') {
		v = append(v, *new(T))
		r.value(&v[len(v)-1])
	}
	return v
}

// numLit is a number literal: its text and, when it has no exponent,
// its digits read as one integer (exact up to 19 of them), how many
// there are and how many of them follow the point.
type numLit struct {
	text         []byte
	n            uint64
	digits, frac int // digits is -1 when the literal has an exponent
}

// number consumes a number literal.
func (r *reader) number() numLit {
	r.peek()
	d, start, i := r.data, r.off, r.off
	var n uint64
	digits, frac := 0, 0
	if i < len(d) && d[i] == '-' {
		i++
	}
	if i < len(d) && d[i] == '0' {
		i, digits = i+1, 1
	} else {
		for ; i < len(d) && d[i]-'0' <= 9; i++ {
			n = n*10 + uint64(d[i]-'0')
			digits++
		}
	}
	if digits == 0 {
		r.fallback()
	}
	if i < len(d) && d[i] == '.' {
		for i++; i < len(d) && d[i]-'0' <= 9; i++ {
			n = n*10 + uint64(d[i]-'0')
			frac++
		}
		if frac == 0 {
			r.fallback()
		}
		digits += frac
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') { // checked only by strconv
		for i, digits = i+1, -1; i < len(d) && (d[i]-'0' <= 9 || d[i] == '+' || d[i] == '-'); i++ {
		}
	}
	r.off = i
	return numLit{text: d[start:i], n: n, digits: digits, frac: frac}
}

// pow10 holds the powers of ten a uint64 holds.
var pow10 = [20]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// parseFloat is strconv.ParseFloat(string(x.text), 64). A literal
// without exponent, of at most 19 digits and not zero — a value n/10^k
// with n and 10^k in a uint64, as a shortest-form encoder writes every
// coordinate — is rounded here: one 128-by-64-bit division gives
// n/10^k to 63 or 64 bits and its remainder, which is all that
// rounding to nearest, ties to even, needs. The others go to strconv.
func parseFloat(x numLit) (float64, error) {
	n := x.n
	if x.digits < 1 || x.digits > 19 || n == 0 {
		return strconv.ParseFloat(string(x.text), 64)
	}
	// n·2^s < d·2^64, so the quotient fits, and n·2^s >= d·2^62, so it
	// has 63 or 64 bits.
	d := pow10[x.frac]
	s := 63 + bits.Len64(d) - bits.Len64(n)
	var hi, lo uint64
	if s >= 64 {
		hi = n << (s - 64)
	} else {
		hi, lo = n>>(64-s), n<<s
	}
	q, rem := bits.Div64(hi, lo, d)
	shift := bits.Len64(q) - 53
	mant, rest, half := q>>shift, q&(1<<shift-1), uint64(1)<<(shift-1)
	if rest > half || rest == half && (rem != 0 || mant&1 == 1) {
		mant++
		if mant == 1<<53 {
			mant >>= 1
			shift++
		}
	}
	// mant·2^(shift-s), mant in [2^52, 2^53): a normal float64, since
	// n/10^k lies in [10^-19, 10^19].
	f := math.Float64frombits(uint64(52+shift-s+1023)<<52 | mant&(1<<52-1))
	if x.text[0] == '-' {
		f = -f
	}
	return f, nil
}

// value decodes the value next into what p points to: a field of a
// body type, or an element of one. A type with no case here is left
// unread, so its body falls back.
func (r *reader) value(p any) {
	switch p := p.(type) {
	case *string:
		*p = string(r.str())
	case *bool:
		word := strconv.FormatBool(r.peek() == 't')
		if !bytes.HasPrefix(r.data[r.off:], []byte(word)) {
			r.fallback()
		}
		r.off += len(word)
		*p = word == "true"
	case *int:
		n, err := strconv.ParseInt(string(r.number().text), 10, strconv.IntSize)
		if err != nil {
			r.fallback()
		}
		*p = int(n)
	case *uint64:
		n, err := strconv.ParseUint(string(r.number().text), 10, 64)
		if err != nil {
			r.fallback()
		}
		*p = n
	case *float64:
		x := r.number()
		f, err := parseFloat(x)
		if err != nil || x.digits < 0 {
			r.fallback()
		}
		*p = f
	case *[2]float64:
		r.expect('[')
		r.value(&p[0])
		r.expect(',')
		r.value(&p[1])
		r.expect(']')
	case *[][2]float64: // into the reader's scratch, copied out exact-sized
		pts := decodeSlice(r, r.points[:0])
		*p = append(make([][2]float64, 0, len(pts)), pts...)
		r.points = pts[:0]
	case *[]int:
		*p = decodeSlice(r, []int{})
	case *[]InlineRegion:
		*p = decodeSlice(r, []InlineRegion{})
	case *InlineRegion:
		p.decode(r)
	case **InlineScene:
		*p = new(InlineScene)
		(*p).decode(r)
	case **ChurnRequest:
		*p = new(ChurnRequest)
		(*p).decode(r)
	}
}

var requestFields = []string{"scene", "inline", "tenant", "level", "rtfBatch", "reentry",
	"degraded", "deadlineMs", "firingBudget", "maxRetries"}

func (q *Request) decode(r *reader) {
	r.object(requestFields, &q.Scene, &q.Inline, &q.Tenant, &q.Level, &q.RTFBatch, &q.ReEntry,
		&q.Degraded, &q.DeadlineMs, &q.FiringBudget, &q.MaxRetries)
}

var inlineSceneFields = []string{"name", "domain", "w", "h", "regions"}

func (is *InlineScene) decode(r *reader) {
	r.object(inlineSceneFields, &is.Name, &is.Domain, &is.W, &is.H, &is.Regions)
}

var inlineRegionFields = []string{"id", "poly", "intensity", "texture", "kind"}

func (ir *InlineRegion) decode(r *reader) {
	r.object(inlineRegionFields, &ir.ID, &ir.Poly, &ir.Intensity, &ir.Texture, &ir.Kind)
}

var deltaRequestFields = []string{"session", "tenant", "removed", "moved", "added", "churn", "deadlineMs"}

func (q *DeltaRequest) decode(r *reader) {
	r.object(deltaRequestFields, &q.Session, &q.Tenant, &q.Removed, &q.Moved, &q.Added, &q.Churn, &q.DeadlineMs)
}

var churnRequestFields = []string{"seed", "fraction", "occlusion", "misseg", "emergent"}

func (c *ChurnRequest) decode(r *reader) {
	r.object(churnRequestFields, &c.Seed, &c.Fraction, &c.Occlusion, &c.MisSeg, &c.Emergent)
}
