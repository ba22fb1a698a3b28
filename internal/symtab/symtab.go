// Package symtab provides the value currency of the OPS5 engine:
// symbols, integers and floating-point numbers, with the comparison
// semantics required by OPS5 predicate tests.
//
// OPS5 attribute values are dynamically typed scalars. Symbols compare
// only for (in)equality; numbers compare numerically regardless of
// integer/float representation; the <=> predicate tests whether two
// values are of the same type.
package symtab

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
)

// Kind discriminates the representation of a Value.
type Kind uint8

const (
	// KindNil is the zero Value; it matches nothing and compares equal
	// only to itself. Unbound attributes hold KindNil.
	KindNil Kind = iota
	// KindSym is a symbolic atom.
	KindSym
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit float.
	KindFloat
)

func (k Kind) String() string {
	switch k {
	case KindNil:
		return "nil"
	case KindSym:
		return "symbol"
	case KindInt:
		return "integer"
	case KindFloat:
		return "float"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is a scalar OPS5 value: two machine words, no pointers. bits
// holds an integer's or a float's 64 bits, or a symbol's id in the
// process-wide intern table. The zero Value is the nil value.
//
// A symbol's id is process-local and depends on the order names were
// first seen, which at more than one worker depends on scheduling.
// Nothing that is printed, sorted, hashed into a signature or sent to
// another process may read one; such code goes through SymVal or
// String, which return the name.
type Value struct {
	kind Kind
	bits uint64
}

// Nil is the nil (absent) value.
var Nil = Value{}

// interned is the process-wide symbol table: append-only, so an id,
// once handed out, names the same symbol for the life of the process.
// Looking up a known name takes no lock (two pool workers building
// seed rows do not serialise on it), and neither does SymVal.
var interned struct {
	ids sync.Map // name → uint64 id
	// mu serialises first sights. names is the id → name table: a new
	// name is appended under mu and the longer slice header published
	// before its id is; a reader holding an older header never indexes
	// past its own length.
	mu    sync.Mutex
	names atomic.Pointer[[]string]
}

func init() { interned.names.Store(new([]string)) }

// Sym returns the symbol value named s, interning s on first sight.
func Sym(s string) Value {
	t := &interned
	id, ok := t.ids.Load(s)
	if !ok {
		t.mu.Lock()
		if id, ok = t.ids.Load(s); !ok {
			names := append(*t.names.Load(), s)
			t.names.Store(&names)
			id = uint64(len(names) - 1)
			t.ids.Store(s, id)
		}
		t.mu.Unlock()
	}
	return Value{kind: KindSym, bits: id.(uint64)}
}

// Interned reports how many distinct symbols the process has interned.
// The table only grows, so a server must never intern a string a client
// controls; the programs and the knowledge base bound it.
func Interned() int { return len(*interned.names.Load()) }

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, bits: uint64(i)} }

// Float returns a float value.
func Float(f float64) Value { return Value{kind: KindFloat, bits: math.Float64bits(f)} }

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNil reports whether v is the nil value.
func (v Value) IsNil() bool { return v.kind == KindNil }

// IsNumber reports whether v is an integer or a float.
func (v Value) IsNumber() bool { return v.kind == KindInt || v.kind == KindFloat }

// SymVal returns the symbol payload; it is "" for non-symbols.
func (v Value) SymVal() string {
	if v.kind != KindSym {
		return ""
	}
	return (*interned.names.Load())[v.bits]
}

// SymID returns a symbol's id in this process's intern table (0 for
// non-symbols): equal for equal names, meaningless anywhere else. It
// exists for in-memory hash keys; see the rule on Value.
func (v Value) SymID() uint64 {
	if v.kind != KindSym {
		return 0
	}
	return v.bits
}

// IntVal returns the value as an int64, truncating floats.
func (v Value) IntVal() int64 {
	switch v.kind {
	case KindInt:
		return int64(v.bits)
	case KindFloat:
		return int64(math.Float64frombits(v.bits))
	}
	return 0
}

// FloatVal returns the value as a float64.
func (v Value) FloatVal() float64 {
	switch v.kind {
	case KindInt:
		return float64(int64(v.bits))
	case KindFloat:
		return math.Float64frombits(v.bits)
	}
	return 0
}

// Equal reports OPS5 value equality: symbols equal by name (one name,
// one id), numbers equal numerically across integer/float
// representations — also between two integers, so two beyond 2^53 with
// one float64 image are Equal whatever their bits.
//
// Two symbols or two nils answer by their bits, and so do two integers
// within ±2^53, where float64 is exact; floats, mixed kinds and larger
// integers take the numeric path.
func (v Value) Equal(w Value) bool {
	if v.kind == w.kind {
		switch v.kind {
		case KindSym, KindNil:
			return v.bits == w.bits
		case KindInt:
			if v.bits+1<<53 <= 1<<54 && w.bits+1<<53 <= 1<<54 {
				return v.bits == w.bits
			}
		}
	}
	switch {
	case v.kind == KindSym || w.kind == KindSym:
		return v == w
	case v.kind == KindNil || w.kind == KindNil:
		return v.kind == w.kind
	default:
		return v.FloatVal() == w.FloatVal()
	}
}

// SameType reports whether v and w have the same type in the OPS5
// <=> sense (symbol vs number; integers and floats are distinct).
func (v Value) SameType(w Value) bool { return v.kind == w.kind }

// Compare orders two numeric values: -1, 0, or +1. The boolean result
// is false when either value is non-numeric (OPS5 relational tests
// fail, rather than error, on non-numbers).
func (v Value) Compare(w Value) (int, bool) {
	if !v.IsNumber() || !w.IsNumber() {
		return 0, false
	}
	a, b := v.FloatVal(), w.FloatVal()
	switch {
	case a < b:
		return -1, true
	case a > b:
		return 1, true
	}
	return 0, true
}

// String renders the value as OPS5 source text.
func (v Value) String() string {
	switch v.kind {
	case KindNil:
		return "nil"
	case KindSym:
		return v.SymVal()
	case KindInt:
		return strconv.FormatInt(int64(v.bits), 10)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(v.bits), 'g', -1, 64)
	}
	return "?"
}

// Parse converts a bare atom of OPS5 source text to a Value: an atom in
// decimal syntax (isDecimal) is an integer or a float, everything else
// — nan, inf, 1_000 and 0x1p3 included, and a number too large for a
// float — is a symbol.
func Parse(tok string) Value {
	if tok == "" {
		return Nil
	}
	if !isDecimal(tok) {
		return Sym(tok)
	}
	if i, err := strconv.ParseInt(tok, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(tok, 64); err == nil {
		return Float(f)
	}
	return Sym(tok)
}

// isDecimal reports whether tok is an optional sign, digits with an
// optional fraction (at least one digit in all), and an optional
// exponent: OPS5's number syntax, narrower than strconv's.
func isDecimal(tok string) bool {
	i := 0
	digits := func() int {
		start := i
		for i < len(tok) && '0' <= tok[i] && tok[i] <= '9' {
			i++
		}
		return i - start
	}
	sign := func() {
		if i < len(tok) && (tok[i] == '+' || tok[i] == '-') {
			i++
		}
	}
	sign()
	n := digits()
	if i < len(tok) && tok[i] == '.' {
		i++
		n += digits()
	}
	if n == 0 {
		return false
	}
	if i < len(tok) && (tok[i] == 'e' || tok[i] == 'E') {
		i++
		sign()
		if digits() == 0 {
			return false
		}
	}
	return i == len(tok)
}
