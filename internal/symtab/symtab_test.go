package symtab

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestParseKinds(t *testing.T) {
	cases := []struct {
		in   string
		kind Kind
	}{
		{"runway", KindSym},
		{"42", KindInt},
		{"-7", KindInt},
		{"3.5", KindFloat},
		{"-0.25", KindFloat},
		{"1e3", KindFloat},
		{"r-17", KindSym},
		{"", KindNil},
		{"<x>", KindSym},
		// A number only in OPS5's decimal syntax: sign, digits, fraction,
		// exponent. What else strconv reads as a number — NaN, the
		// infinities, digit separators, hex — is a symbol, and so is a
		// decimal too large for a float.
		{"+12", KindInt},
		{"1.", KindFloat},
		{"-.5", KindFloat},
		{"2.5E-1", KindFloat},
		{"99999999999999999999", KindFloat},
		{"nan", KindSym},
		{"NaN", KindSym},
		{"+Inf", KindSym},
		{"-infinity", KindSym},
		{"1_000", KindSym},
		{"0x1p3", KindSym},
		{"0x10", KindSym},
		{"1e", KindSym},
		{".", KindSym},
		{"+", KindSym},
		{"1e400", KindSym},
	}
	for _, c := range cases {
		if got := Parse(c.in).Kind(); got != c.kind {
			t.Errorf("Parse(%q).Kind() = %v, want %v", c.in, got, c.kind)
		}
	}
}

func TestEqualCrossNumeric(t *testing.T) {
	if !Int(2).Equal(Float(2.0)) {
		t.Error("Int(2) should equal Float(2.0)")
	}
	if Int(2).Equal(Float(2.5)) {
		t.Error("Int(2) should not equal Float(2.5)")
	}
	if Int(2).Equal(Sym("2")) {
		t.Error("Int(2) should not equal Sym(\"2\")")
	}
	if !Sym("abc").Equal(Sym("abc")) {
		t.Error("identical symbols should be equal")
	}
	if Sym("abc").Equal(Sym("abd")) {
		t.Error("distinct symbols should not be equal")
	}
	if !Nil.Equal(Nil) {
		t.Error("nil equals nil")
	}
	if Nil.Equal(Int(0)) {
		t.Error("nil should not equal 0")
	}
}

func TestSameType(t *testing.T) {
	if !Int(1).SameType(Int(9)) || !Float(1).SameType(Float(2)) || !Sym("a").SameType(Sym("b")) {
		t.Error("same-kind values must be SameType")
	}
	if Int(1).SameType(Float(1)) {
		t.Error("int and float are distinct types under <=>")
	}
	if Sym("1").SameType(Int(1)) {
		t.Error("symbol and int are distinct types")
	}
}

func TestCompare(t *testing.T) {
	if c, ok := Int(1).Compare(Float(2)); !ok || c != -1 {
		t.Errorf("1 vs 2.0: got (%d,%v)", c, ok)
	}
	if c, ok := Float(3).Compare(Int(3)); !ok || c != 0 {
		t.Errorf("3.0 vs 3: got (%d,%v)", c, ok)
	}
	if c, ok := Int(5).Compare(Int(4)); !ok || c != 1 {
		t.Errorf("5 vs 4: got (%d,%v)", c, ok)
	}
	if _, ok := Sym("a").Compare(Int(4)); ok {
		t.Error("symbol comparison must report !ok")
	}
	if _, ok := Int(4).Compare(Nil); ok {
		t.Error("nil comparison must report !ok")
	}
}

func TestAccessors(t *testing.T) {
	if Sym("x").SymVal() != "x" || Int(3).SymVal() != "" {
		t.Error("SymVal payloads wrong")
	}
	if Int(7).IntVal() != 7 || Float(7.9).IntVal() != 7 {
		t.Error("IntVal payloads wrong")
	}
	if Int(7).FloatVal() != 7.0 || Float(2.5).FloatVal() != 2.5 {
		t.Error("FloatVal payloads wrong")
	}
	if !Nil.IsNil() || Int(0).IsNil() {
		t.Error("IsNil wrong")
	}
	if !Int(0).IsNumber() || !Float(0).IsNumber() || Sym("0").IsNumber() {
		t.Error("IsNumber wrong")
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, v := range []Value{Sym("terminal-building"), Int(-12), Float(0.75), Nil} {
		got := Parse(v.String())
		if v.IsNil() {
			// "nil" parses as a symbol; the nil value is not produced by
			// source text, only by unbound attributes.
			continue
		}
		if !got.Equal(v) || !got.SameType(v) {
			t.Errorf("round trip of %v gave %v", v, got)
		}
	}
}

func TestQuickCompareAntisymmetry(t *testing.T) {
	f := func(a, b int64) bool {
		c1, ok1 := Int(a).Compare(Int(b))
		c2, ok2 := Int(b).Compare(Int(a))
		return ok1 && ok2 && c1 == -c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickEqualReflexiveSymmetric(t *testing.T) {
	f := func(a int64, s string, useSym bool) bool {
		var v Value
		if useSym {
			v = Sym(s)
		} else {
			v = Int(a)
		}
		return v.Equal(v) && (!v.Equal(Sym(s+"x")) || useSym && s == s+"x")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickParseNumbersNumeric(t *testing.T) {
	f := func(n int64) bool {
		v := Parse(Int(n).String())
		return v.Kind() == KindInt && v.IntVal() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refValue is the four-field representation Value had before symbols
// were interned, kept as the reference the two-word one must agree
// with method for method.
type refValue struct {
	kind Kind
	sym  string
	num  int64
	flt  float64
}

func (v refValue) isNumber() bool { return v.kind == KindInt || v.kind == KindFloat }

func (v refValue) intVal() int64 {
	switch v.kind {
	case KindInt:
		return v.num
	case KindFloat:
		return int64(v.flt)
	}
	return 0
}

func (v refValue) floatVal() float64 {
	switch v.kind {
	case KindInt:
		return float64(v.num)
	case KindFloat:
		return v.flt
	}
	return 0
}

func (v refValue) equal(w refValue) bool {
	switch {
	case v.kind == KindSym || w.kind == KindSym:
		return v.kind == w.kind && v.sym == w.sym
	case v.kind == KindNil || w.kind == KindNil:
		return v.kind == w.kind
	default:
		return v.floatVal() == w.floatVal()
	}
}

func (v refValue) compare(w refValue) (int, bool) {
	if !v.isNumber() || !w.isNumber() {
		return 0, false
	}
	a, b := v.floatVal(), w.floatVal()
	switch {
	case a < b:
		return -1, true
	case a > b:
		return 1, true
	}
	return 0, true
}

func (v refValue) string() string {
	switch v.kind {
	case KindNil:
		return "nil"
	case KindSym:
		return v.sym
	case KindInt:
		return strconv.FormatInt(v.num, 10)
	case KindFloat:
		return strconv.FormatFloat(v.flt, 'g', -1, 64)
	}
	return "?"
}

// refDecimal is OPS5's number syntax, spelled independently of
// isDecimal.
var refDecimal = regexp.MustCompile(`^[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?$`)

func refParse(tok string) refValue {
	if tok == "" {
		return refValue{}
	}
	if !refDecimal.MatchString(tok) {
		return refValue{kind: KindSym, sym: tok}
	}
	if i, err := strconv.ParseInt(tok, 10, 64); err == nil {
		return refValue{kind: KindInt, num: i}
	}
	if f, err := strconv.ParseFloat(tok, 64); err == nil {
		return refValue{kind: KindFloat, flt: f}
	}
	return refValue{kind: KindSym, sym: tok}
}

// valuePair is one value in both representations.
type valuePair struct {
	v   Value
	ref refValue
}

var (
	edgeInts = []int64{0, 1, -1, 2, 1 << 53, 1<<53 + 1, -(1<<53 + 1), 1<<62 + 1, 1<<62 + 2,
		math.MaxInt64, math.MaxInt64 - 1, math.MinInt64}
	edgeFloats = []float64{0, math.Copysign(0, -1), 1, 2, -1.5, math.NaN(), math.Inf(1), math.Inf(-1),
		1 << 53, 1<<53 + 2, 9.3e18, -9.3e18, math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1}
	edgeSyms = []string{"runway", "t", "f", "2", "nil", "r-17", "<x>", "", "NaN", "1e3x"}
)

// Generate draws edge cases half the time: the interesting
// disagreements (NaN, signed zeros, ints with one float64 image,
// number-shaped symbol names) are a measure-zero set of the uniform
// draw.
func (valuePair) Generate(r *rand.Rand, _ int) reflect.Value {
	var p valuePair
	edge := r.Intn(2) == 0
	switch r.Intn(4) {
	case 0: // nil
	case 1:
		s := edgeSyms[r.Intn(len(edgeSyms))]
		if !edge {
			s = fmt.Sprintf("s%d", r.Intn(50))
		}
		p = valuePair{Sym(s), refValue{kind: KindSym, sym: s}}
	case 2:
		i := edgeInts[r.Intn(len(edgeInts))]
		if !edge {
			i = int64(r.Uint64())
		}
		p = valuePair{Int(i), refValue{kind: KindInt, num: i}}
	case 3:
		f := edgeFloats[r.Intn(len(edgeFloats))]
		if !edge {
			f = math.Float64frombits(r.Uint64())
		}
		p = valuePair{Float(f), refValue{kind: KindFloat, flt: f}}
	}
	return reflect.ValueOf(p)
}

// sameFloat is == that also holds between two NaNs.
func sameFloat(a, b float64) bool { return a == b || a != a && b != b }

// TestReprAgreesWithReference: every method of the two-word Value
// answers what the four-field struct answered, on single values and on
// same- and cross-kind pairs.
func TestReprAgreesWithReference(t *testing.T) {
	f := func(a, b valuePair) bool {
		if a.v.Kind() != a.ref.kind || a.v.IsNil() != (a.ref.kind == KindNil) || a.v.IsNumber() != a.ref.isNumber() {
			t.Logf("kind of %v", a.ref)
			return false
		}
		if a.v.SymVal() != a.ref.sym || a.v.IntVal() != a.ref.intVal() || !sameFloat(a.v.FloatVal(), a.ref.floatVal()) {
			t.Logf("payload of %#v", a.ref)
			return false
		}
		if a.v.String() != a.ref.string() {
			t.Logf("String of %#v: %q", a.ref, a.v.String())
			return false
		}
		pv, pr := Parse(a.v.String()), refParse(a.ref.string())
		if pv.Kind() != pr.kind || pv.String() != pr.string() || pv.Equal(a.v) != pr.equal(a.ref) {
			t.Logf("Parse∘String of %#v: %v vs %#v", a.ref, pv, pr)
			return false
		}
		if a.v.Equal(b.v) != a.ref.equal(b.ref) || b.v.Equal(a.v) != b.ref.equal(a.ref) || a.v.Equal(a.v) != a.ref.equal(a.ref) {
			t.Logf("Equal of %#v, %#v", a.ref, b.ref)
			return false
		}
		if a.v.SameType(b.v) != (a.ref.kind == b.ref.kind) {
			t.Logf("SameType of %#v, %#v", a.ref, b.ref)
			return false
		}
		c, ok := a.v.Compare(b.v)
		rc, rok := a.ref.compare(b.ref)
		if c != rc || ok != rok {
			t.Logf("Compare of %#v, %#v", a.ref, b.ref)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
	// The cases the shortcuts in Equal must not get wrong, by name.
	nan := Float(math.NaN())
	if nan.Equal(nan) {
		t.Error("NaN must not equal itself")
	}
	if !Float(math.Copysign(0, -1)).Equal(Float(0)) || !Int(0).Equal(Float(math.Copysign(0, -1))) {
		t.Error("-0.0 must equal +0.0 and Int(0)")
	}
	if !Int(1 << 53).Equal(Int(1<<53 + 1)) {
		t.Error("ints with one float64 image are Equal, as they always were")
	}
	if (Value{}) != Nil || !(Value{}).IsNil() {
		t.Error("the zero Value is Nil")
	}
}

// TestReprShape: a Value is two words and holds nothing the collector
// must scan.
func TestReprShape(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 16 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 16", got)
	}
	rt := reflect.TypeOf(Value{})
	for i := 0; i < rt.NumField(); i++ {
		switch k := rt.Field(i).Type.Kind(); k {
		case reflect.Uint8, reflect.Uint64:
		default:
			t.Errorf("field %s has kind %v: pointer-shaped or not a plain word", rt.Field(i).Name, k)
		}
	}
}

// TestInternConcurrent: eight goroutines interning an overlapping
// vocabulary agree on one id per name, every id reads back as its name,
// and names interned before the race keep their ids.
func TestInternConcurrent(t *testing.T) {
	const workers, vocab = 8, 400
	// The table outlives a -count run of this test; the table's size on
	// entry makes each run's vocabulary new.
	run := Interned()
	name := func(i int) string { return fmt.Sprintf("concurrent-%d-%d", run, i) }
	before := make([]Value, 20)
	for i := range before {
		before[i] = Sym(name(i))
	}
	base := Interned()

	got := make([][]Value, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vals := make([]Value, vocab)
			// Each worker walks the vocabulary from its own offset, so
			// first sight of a name races between workers.
			for k := 0; k < vocab; k++ {
				i := (k + g*vocab/workers) % vocab
				vals[i] = Sym(name(i))
				if vals[i].SymVal() != name(i) {
					t.Errorf("SymVal of fresh %q = %q", name(i), vals[i].SymVal())
				}
			}
			got[g] = vals
		}(g)
	}
	wg.Wait()

	for i := 0; i < vocab; i++ {
		for g := 1; g < workers; g++ {
			if got[g][i] != got[0][i] {
				t.Fatalf("%q interned to two ids", name(i))
			}
		}
		if s := got[0][i].SymVal(); s != name(i) {
			t.Errorf("id of %q reads back %q", name(i), s)
		}
		if i < len(before) && got[0][i] != before[i] {
			t.Errorf("%q changed id across the race", name(i))
		}
	}
	if n := Interned() - base; n != vocab-len(before) {
		t.Errorf("interned %d new names, want %d", n, vocab-len(before))
	}
}

var sinkBool bool

func BenchmarkValueEqual(b *testing.B) {
	cases := []struct {
		name string
		a, b Value
	}{
		// The same name from two strings: the match a bucket walk confirms.
		{"sym/sym", Sym("terminal-building"), Sym(string([]byte("terminal-building")))},
		{"int/int", Int(17), Int(18)},
		{"int/float", Int(17), Float(17)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			x, y := c.a, c.b
			for b.Loop() {
				sinkBool = x.Equal(y)
			}
		})
	}
}

// BenchmarkSymIntern is the hit path — a name already in the table —
// from every processor at once: what a pool worker pays when it builds
// a symbol the knowledge base named.
func BenchmarkSymIntern(b *testing.B) {
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("bench-sym-%d", i)
		Sym(names[i])
	}
	b.RunParallel(func(pb *testing.PB) {
		ok := true
		for i := 0; pb.Next(); i++ {
			ok = ok && Sym(names[i%len(names)]).kind == KindSym
		}
		if !ok {
			b.Error("Sym returned a non-symbol")
		}
	})
}
