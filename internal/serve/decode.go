package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The request bodies' decoder. A body is read once into a recycled
// buffer and decoded in one pass over it: a byte-level JSON reader and,
// for each body type, a switch over its fields, with no reflection.
// What it accepts and the values it produces are exactly those of
// encoding/json's Decoder with DisallowUnknownFields followed by a
// check that only whitespace follows the value, and it words every
// refusal as that pair does: a syntax error anywhere in the value
// first, then the first type mismatch or unknown field in document
// order, then data after the value. FuzzDecodeBody holds it to
// encoding/json.

// maxNestingDepth is encoding/json's bound on nested arrays and objects.
const maxNestingDepth = 10000

// maxPooledBytes bounds the scratch a recycled reader keeps: one huge
// body does not pin its buffer for the server's lifetime.
const maxPooledBytes = 1 << 20

// errTrailing refuses a body with more than whitespace after its value.
var errTrailing = errors.New("data after the JSON value")

// bodyValue is a request body type: it decodes itself from a reader
// positioned at its value.
type bodyValue interface{ decode(r *reader) }

// readers recycles decoders and their buffers across requests.
var readers = sync.Pool{New: func() any { return new(reader) }}

// decodeBody reads a request body, bounded by maxBodyBytes, and decodes
// it into v strictly: one JSON value, no unknown field, nothing but
// whitespace after it.
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
	data  []byte
	off   int
	depth int // open arrays and objects
	// err is the first type mismatch or unknown field. Decoding goes on
	// past it, because a later syntax error is what the body is refused
	// for.
	err error
	// strct and fields are a type mismatch's context: the Go struct
	// holding the innermost field being decoded and the JSON keys that
	// lead to it.
	strct  string
	fields []string

	buf    []byte       // the body
	text   []byte       // unquoted strings
	points [][2]float64 // a polygon being decoded; all zero between polygons
}

// bail ends a decode at a syntax error or the end of the input.
type bail struct{ err error }

// read reads body whole into the reader's buffer, sized from the
// request's Content-Length when it names one up to maxPooledBytes (a
// client's number sizes nothing past what a reader may keep).
func (r *reader) read(body io.Reader, size int64) ([]byte, error) {
	buf := r.buf[:0]
	if size > 0 && size < maxPooledBytes && int(size) >= cap(buf) {
		buf = make([]byte, 0, size+1) // +1: the read that meets EOF needs room
	}
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 4096)
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			r.buf = buf
			return nil, err
		}
	}
	r.buf = buf
	return buf, nil
}

// release returns the reader to the pool.
func (r *reader) release() {
	clear(r.points[:cap(r.points)]) // a decode that bailed mid-polygon
	if cap(r.buf) > maxPooledBytes {
		r.buf = nil
	}
	if cap(r.text) > maxPooledBytes {
		r.text = nil
	}
	if cap(r.points)*16 > maxPooledBytes {
		r.points = nil
	}
	r.data = nil
	readers.Put(r)
}

// decode decodes data into v.
func (r *reader) decode(data []byte, v bodyValue) (err error) {
	r.data, r.off, r.depth, r.err = data, 0, 0, nil
	r.strct, r.fields = "", r.fields[:0]
	defer func() {
		if p := recover(); p != nil {
			b, ok := p.(bail)
			if !ok {
				panic(p)
			}
			err = b.err
		}
	}()
	r.space()
	if r.off == len(r.data) {
		return io.EOF
	}
	v.decode(r)
	if r.err != nil {
		return r.err
	}
	r.space()
	if r.off < len(r.data) {
		return errTrailing
	}
	return nil
}

// fail refuses the byte at r.off, in encoding/json's words.
func (r *reader) fail(context string) {
	panic(bail{errors.New("invalid character " + quoteChar(r.data[r.off]) + " " + context)})
}

// quoteChar formats c as encoding/json's syntax errors do.
func quoteChar(c byte) string {
	switch c {
	case '\'':
		return `'\''`
	case '"':
		return `'"'`
	}
	s := strconv.Quote(string(rune(c)))
	return "'" + s[1:len(s)-1] + "'"
}

func (r *reader) space() {
	for r.off < len(r.data) {
		switch r.data[r.off] {
		case ' ', '\t', '\r', '\n':
			r.off++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte, which the input
// must have.
func (r *reader) peek() byte {
	r.space()
	if r.off == len(r.data) {
		panic(bail{io.ErrUnexpectedEOF})
	}
	return r.data[r.off]
}

// save records a type mismatch unless an error is recorded already.
func (r *reader) save(what, typ string) {
	if r.err != nil {
		return
	}
	if r.strct == "" && len(r.fields) == 0 {
		r.err = errors.New("json: cannot unmarshal " + what + " into Go value of type " + typ)
		return
	}
	r.err = errors.New("json: cannot unmarshal " + what + " into Go struct field " +
		r.strct + "." + strings.Join(r.fields, ".") + " of type " + typ)
}

// mismatch records that the value starting with c is not a typ, and
// skips it. A null is no mismatch: skipped, it leaves the typ as it is.
func (r *reader) mismatch(c byte, typ string) {
	switch {
	case c == '{':
		r.save("object", typ)
	case c == '[':
		r.save("array", typ)
	case c == '"':
		r.save("string", typ)
	case c == 't' || c == 'f':
		r.save("bool", typ)
	case c == '-' || '0' <= c && c <= '9':
		r.save("number", typ)
	}
	r.skip()
}

// skip consumes one value of any type.
func (r *reader) skip() {
	switch c := r.peek(); {
	case c == '{':
		for more := r.openObject(); more; more = r.nextMember() {
			r.key()
			r.skip()
		}
	case c == '[':
		for more := r.openArray(); more; more = r.nextElem() {
			r.skip()
		}
	case c == '"':
		r.str()
	case c == 't':
		r.literal("true")
	case c == 'f':
		r.literal("false")
	case c == 'n':
		r.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		r.number()
	default:
		r.fail("looking for beginning of value")
	}
}

// literal consumes the literal word.
func (r *reader) literal(word string) {
	r.off++
	for i := 1; i < len(word); i++ {
		if r.off == len(r.data) {
			panic(bail{io.ErrUnexpectedEOF})
		}
		if r.data[r.off] != word[i] {
			r.fail("in literal " + word + " (expecting '" + word[i:i+1] + "')")
		}
		r.off++
	}
}

// null consumes a null if one is next.
func (r *reader) null() bool {
	if r.peek() != 'n' {
		return false
	}
	r.literal("null")
	return true
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
	d, start, i := r.data, r.off, r.off
	var n uint64
	digits, frac := 0, 0
	if d[i] == '-' {
		i = r.digit(i+1, "in numeric literal")
	}
	if d[i] == '0' {
		i++
		digits = 1
	} else {
		for ; i < len(d) && d[i]-'0' <= 9; i++ {
			n = n*10 + uint64(d[i]-'0')
			digits++
		}
	}
	if i < len(d) && d[i] == '.' {
		i = r.digit(i+1, "after decimal point in numeric literal")
		for ; i < len(d) && d[i]-'0' <= 9; i++ {
			n = n*10 + uint64(d[i]-'0')
			frac++
		}
		digits += frac
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		for i = r.digit(i, "in exponent of numeric literal"); i < len(d) && d[i]-'0' <= 9; i++ {
		}
		digits = -1
	}
	r.off = i
	return numLit{text: d[start:i], n: n, digits: digits, frac: frac}
}

// digit requires a digit at i, which it returns.
func (r *reader) digit(i int, context string) int {
	if i == len(r.data) {
		panic(bail{io.ErrUnexpectedEOF})
	}
	if r.data[i]-'0' > 9 {
		r.off = i
		r.fail(context)
	}
	return i
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

// str consumes a string literal and returns it unquoted: a slice of
// the body when it needs no unquoting, else of the reader's scratch,
// valid until the next call.
func (r *reader) str() []byte {
	d := r.data
	start := r.off + 1
	escaped, high := false, false
	for i := start; ; {
		if i == len(d) {
			panic(bail{io.ErrUnexpectedEOF})
		}
		switch c := d[i]; {
		case c == '"':
			r.off = i + 1
			s := d[start:i]
			if escaped || high && !utf8.Valid(s) {
				return r.unquote(s)
			}
			return s
		case c == '\\':
			escaped = true
			i++
			if i == len(d) {
				panic(bail{io.ErrUnexpectedEOF})
			}
			switch d[i] {
			case 'b', 'f', 'n', 'r', 't', '\\', '/', '"':
				i++
			case 'u':
				i++
				for range 4 {
					if i == len(d) {
						panic(bail{io.ErrUnexpectedEOF})
					}
					if unhex(d[i]) < 0 {
						r.off = i
						r.fail(`in \u hexadecimal character escape`)
					}
					i++
				}
			default:
				r.off = i
				r.fail("in string escape code")
			}
		case c < ' ':
			r.off = i
			r.fail("in string literal")
		default:
			high = high || c >= utf8.RuneSelf
			i++
		}
	}
}

func unhex(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// hex4 reads the four hex digits after a \u the literal was checked to
// have.
func hex4(s []byte) rune {
	return unhex(s[0])<<12 | unhex(s[1])<<8 | unhex(s[2])<<4 | unhex(s[3])
}

// unquote unescapes a checked string literal's contents as
// encoding/json does: a surrogate pair's two escapes make one rune, a
// lone surrogate and every byte of invalid UTF-8 become U+FFFD.
func (r *reader) unquote(s []byte) []byte {
	b := r.text[:0]
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '\\':
			switch e := s[i+1]; e {
			case 'u':
				rr := hex4(s[i+2:])
				i += 6
				if utf16.IsSurrogate(rr) {
					if i+6 <= len(s) && s[i] == '\\' && s[i+1] == 'u' {
						if dec := utf16.DecodeRune(rr, hex4(s[i+2:])); dec != unicode.ReplacementChar {
							b = utf8.AppendRune(b, dec)
							i += 6
							continue
						}
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
				continue
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			default: // \\ \/ \"
				b = append(b, e)
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			rr, size := utf8.DecodeRune(s[i:])
			b = utf8.AppendRune(b, rr)
			i += size
		}
	}
	r.text = b
	return b
}

// open enters the array or object whose bracket is at r.off.
func (r *reader) open() {
	r.depth++
	if r.depth > maxNestingDepth {
		r.fail("exceeded max depth")
	}
	r.off++
}

// openObject enters an object and reports whether a member follows;
// if not, it has consumed the closing brace.
func (r *reader) openObject() bool {
	r.open()
	switch r.peek() {
	case '}':
		r.off++
		r.depth--
		return false
	case '"':
		return true
	}
	r.fail("looking for beginning of object key string")
	return false
}

// nextMember consumes what follows a member's value and reports
// whether another member follows.
func (r *reader) nextMember() bool {
	switch r.peek() {
	case ',':
		r.off++
		if r.peek() != '"' {
			r.fail("looking for beginning of object key string")
		}
		return true
	case '}':
		r.off++
		r.depth--
		return false
	}
	r.fail("after object key:value pair")
	return false
}

// key consumes a member's key and the colon after it, and returns the
// key unquoted (valid until the next string is read).
func (r *reader) key() []byte {
	k := r.str()
	if r.peek() != ':' {
		r.fail("after object key")
	}
	r.off++
	return k
}

// openArray enters an array and reports whether an element follows;
// if not, it has consumed the closing bracket.
func (r *reader) openArray() bool {
	r.open()
	if r.peek() == ']' {
		r.off++
		r.depth--
		return false
	}
	return true
}

// nextElem consumes what follows an element and reports whether
// another element follows.
func (r *reader) nextElem() bool {
	switch r.peek() {
	case ',':
		r.off++
		return true
	case ']':
		r.off++
		r.depth--
		return false
	}
	r.fail("after array element")
	return false
}

// object decodes an object into a struct whose Go type is named typ
// (without its package) and whose fields have the JSON keys names:
// for each member whose key matches one of names, exactly or folding
// case as bytes.EqualFold does, field decodes the value, the reader
// positioned at it. A repeated key decodes again into the field; null
// leaves the struct as it is.
func (r *reader) object(typ string, names []string, field func(name string)) {
	if c := r.peek(); c != '{' {
		r.mismatch(c, "serve."+typ)
		return
	}
	strct, depth := r.strct, len(r.fields)
	for more := r.openObject(); more; more = r.nextMember() {
		key := r.key()
		name := match(key, names)
		if name == "" {
			if r.err == nil {
				r.err = fmt.Errorf("json: unknown field %q", key)
			}
			r.skip()
			continue
		}
		r.strct, r.fields = typ, append(r.fields, name)
		field(name)
		r.strct, r.fields = strct, r.fields[:depth]
	}
}

// match returns the name key matches, or "".
func match(key []byte, names []string) string {
	for _, n := range names {
		if string(key) == n {
			return n
		}
	}
	for _, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			return n
		}
	}
	return ""
}

// decodeSlice decodes an array into *s, whose Go type is named typ, as
// encoding/json decodes into a slice: element by element over the
// backing array already there, so that a repeated key decodes into
// what the earlier one left, even past the slice's length; then the
// slice is cut to the array's length, and an empty array makes an
// empty slice. null sets *s nil.
func decodeSlice[T any](r *reader, s *[]T, typ string, elem func(*T)) {
	switch c := r.peek(); c {
	case '[':
	case 'n':
		r.null()
		*s = nil
		return
	default:
		r.mismatch(c, typ)
		return
	}
	v, i := *s, 0
	for more := r.openArray(); more; more = r.nextElem() {
		if i == len(v) {
			if i < cap(v) {
				v = v[:i+1]
			} else {
				var zero T
				v = append(v, zero)
			}
		}
		elem(&v[i])
		i++
	}
	if i == 0 {
		v = []T{}
	}
	*s = v[:i]
}

// setString decodes a string into *p.
func (r *reader) setString(p *string) {
	if c := r.peek(); c != '"' {
		r.mismatch(c, "string")
		return
	}
	*p = string(r.str())
}

// setBool decodes true or false into *p.
func (r *reader) setBool(p *bool) {
	switch c := r.peek(); c {
	case 't':
		r.literal("true")
		*p = true
	case 'f':
		r.literal("false")
		*p = false
	default:
		r.mismatch(c, "bool")
	}
}

// numeral reads the number literal next and reports true, or skips
// anything else as a mismatch against typ and reports false.
func (r *reader) numeral(typ string) (numLit, bool) {
	if c := r.peek(); c != '-' && c-'0' > 9 {
		r.mismatch(c, typ)
		return numLit{}, false
	}
	return r.number(), true
}

// setInt decodes an integer in int's range into *p.
func (r *reader) setInt(p *int) {
	if x, ok := r.numeral("int"); ok {
		n, err := strconv.ParseInt(string(x.text), 10, strconv.IntSize)
		if err != nil {
			r.save("number "+string(x.text), "int")
			return
		}
		*p = int(n)
	}
}

// setUint64 decodes an integer in uint64's range into *p.
func (r *reader) setUint64(p *uint64) {
	if x, ok := r.numeral("uint64"); ok {
		n, err := strconv.ParseUint(string(x.text), 10, 64)
		if err != nil {
			r.save("number "+string(x.text), "uint64")
			return
		}
		*p = n
	}
}

// setFloat decodes a number in float64's range into *p.
func (r *reader) setFloat(p *float64) {
	if c := r.peek(); c != '-' && c-'0' > 9 {
		r.mismatch(c, "float64")
		return
	}
	x := r.number()
	f, err := parseFloat(x)
	if err != nil {
		r.save("number "+string(x.text), "float64")
		return
	}
	*p = f
}

// point decodes a [2]float64: its first two elements, a missing one
// zero and extras skipped. null leaves it as it is.
func (r *reader) point(p *[2]float64) {
	if c := r.peek(); c != '[' {
		r.mismatch(c, "[2]float64")
		return
	}
	i := 0
	for more := r.openArray(); more; more = r.nextElem() {
		if i < len(p) {
			r.setFloat(&p[i])
		} else {
			r.skip()
		}
		i++
	}
	for ; i < len(p); i++ {
		p[i] = 0
	}
}

// polygon decodes a region's points. A polygon with no backing array
// yet — every one a body names once — is decoded into the reader's
// scratch and copied out exact-sized; a repeated key decodes over the
// backing array already there.
func (r *reader) polygon(p *[][2]float64) {
	const typ = "[][2]float64"
	if cap(*p) > 0 || r.peek() != '[' {
		decodeSlice(r, p, typ, r.point)
		return
	}
	pts := r.points[:0]
	decodeSlice(r, &pts, typ, r.point)
	*p = slices.Clone(pts)
	clear(pts)
	if cap(pts) > cap(r.points) {
		r.points = pts[:0]
	}
}

var requestFields = []string{"scene", "inline", "tenant", "level", "rtfBatch", "reentry",
	"degraded", "deadlineMs", "firingBudget", "maxRetries"}

func (q *Request) decode(r *reader) {
	r.object("Request", requestFields, func(name string) {
		switch name {
		case "scene":
			r.setString(&q.Scene)
		case "inline":
			if r.null() {
				q.Inline = nil
				return
			}
			if q.Inline == nil {
				q.Inline = new(InlineScene)
			}
			q.Inline.decode(r)
		case "tenant":
			r.setString(&q.Tenant)
		case "level":
			r.setInt(&q.Level)
		case "rtfBatch":
			r.setInt(&q.RTFBatch)
		case "reentry":
			r.setBool(&q.ReEntry)
		case "degraded":
			r.setBool(&q.Degraded)
		case "deadlineMs":
			r.setInt(&q.DeadlineMs)
		case "firingBudget":
			r.setInt(&q.FiringBudget)
		case "maxRetries":
			r.setInt(&q.MaxRetries)
		}
	})
}

var inlineSceneFields = []string{"name", "domain", "w", "h", "regions"}

func (is *InlineScene) decode(r *reader) {
	r.object("InlineScene", inlineSceneFields, func(name string) {
		switch name {
		case "name":
			r.setString(&is.Name)
		case "domain":
			r.setString(&is.Domain)
		case "w":
			r.setFloat(&is.W)
		case "h":
			r.setFloat(&is.H)
		case "regions":
			decodeSlice(r, &is.Regions, "[]serve.InlineRegion", func(ir *InlineRegion) { ir.decode(r) })
		}
	})
}

var inlineRegionFields = []string{"id", "poly", "intensity", "texture", "kind"}

func (ir *InlineRegion) decode(r *reader) {
	r.object("InlineRegion", inlineRegionFields, func(name string) {
		switch name {
		case "id":
			r.setInt(&ir.ID)
		case "poly":
			r.polygon(&ir.Poly)
		case "intensity":
			r.setFloat(&ir.Intensity)
		case "texture":
			r.setFloat(&ir.Texture)
		case "kind":
			r.setString(&ir.Kind)
		}
	})
}

var deltaRequestFields = []string{"session", "tenant", "removed", "moved", "added", "churn", "deadlineMs"}

func (q *DeltaRequest) decode(r *reader) {
	region := func(ir *InlineRegion) { ir.decode(r) }
	r.object("DeltaRequest", deltaRequestFields, func(name string) {
		switch name {
		case "session":
			r.setString(&q.Session)
		case "tenant":
			r.setString(&q.Tenant)
		case "removed":
			decodeSlice(r, &q.Removed, "[]int", r.setInt)
		case "moved":
			decodeSlice(r, &q.Moved, "[]serve.InlineRegion", region)
		case "added":
			decodeSlice(r, &q.Added, "[]serve.InlineRegion", region)
		case "churn":
			if r.null() {
				q.Churn = nil
				return
			}
			if q.Churn == nil {
				q.Churn = new(ChurnRequest)
			}
			q.Churn.decode(r)
		case "deadlineMs":
			r.setInt(&q.DeadlineMs)
		}
	})
}

var churnRequestFields = []string{"seed", "fraction", "occlusion", "misseg", "emergent"}

func (c *ChurnRequest) decode(r *reader) {
	r.object("ChurnRequest", churnRequestFields, func(name string) {
		switch name {
		case "seed":
			r.setUint64(&c.Seed)
		case "fraction":
			r.setFloat(&c.Fraction)
		case "occlusion":
			r.setFloat(&c.Occlusion)
		case "misseg":
			r.setFloat(&c.MisSeg)
		case "emergent":
			r.setFloat(&c.Emergent)
		}
	})
}
