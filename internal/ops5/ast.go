// Package ops5 implements the OPS5 production-system language and its
// recognize-act interpreter: lexer, parser, semantic analysis, LEX and
// MEA conflict resolution, RHS actions with external (task-related)
// function calls, and per-cycle cost accounting for the parallelism
// studies.
//
// The subset implemented is the one SPAM's knowledge base uses:
// literalize declarations with scalar attributes, productions with
// positive and negated condition elements, variables, relational
// predicates, disjunctive (<< ... >>) and conjunctive ({ ... }) tests,
// element variables, and RHS make/modify/remove/bind/write/call/halt.
package ops5

import (
	"fmt"
	"strings"
	"sync"

	"spampsm/internal/symtab"
)

// Pred is an OPS5 predicate in an attribute test.
type Pred uint8

const (
	// PredEQ is equality (the default when no predicate is written).
	PredEQ Pred = iota
	// PredNE is <>.
	PredNE
	// PredLT is <.
	PredLT
	// PredLE is <=.
	PredLE
	// PredGT is >.
	PredGT
	// PredGE is >=.
	PredGE
	// PredSame is <=>, the same-type test.
	PredSame
)

func (p Pred) String() string {
	switch p {
	case PredEQ:
		return "="
	case PredNE:
		return "<>"
	case PredLT:
		return "<"
	case PredLE:
		return "<="
	case PredGT:
		return ">"
	case PredGE:
		return ">="
	case PredSame:
		return "<=>"
	}
	return "?"
}

// Apply evaluates the predicate over two values with OPS5 semantics:
// relational predicates fail (rather than error) on non-numbers.
func (p Pred) Apply(a, b symtab.Value) bool {
	switch p {
	case PredEQ:
		return a.Equal(b)
	case PredNE:
		return !a.Equal(b)
	case PredSame:
		return a.SameType(b)
	}
	c, ok := a.Compare(b)
	if !ok {
		return false
	}
	switch p {
	case PredLT:
		return c < 0
	case PredLE:
		return c <= 0
	case PredGT:
		return c > 0
	case PredGE:
		return c >= 0
	}
	return false
}

// TestTerm is one term of an attribute test: a predicate applied to a
// constant, a variable, or (for EQ only) a disjunction of constants.
type TestTerm struct {
	Pred Pred
	// Exactly one of the following is active.
	Var  string         // variable reference, e.g. <x>
	Val  symtab.Value   // constant
	Disj []symtab.Value // << a b c >> one-of set
}

// IsVar reports whether the term references a variable.
func (t TestTerm) IsVar() bool { return t.Var != "" }

func (t TestTerm) String() string {
	var core string
	switch {
	case t.Disj != nil:
		parts := make([]string, len(t.Disj))
		for i, d := range t.Disj {
			parts[i] = d.String()
		}
		core = "<< " + strings.Join(parts, " ") + " >>"
	case t.IsVar():
		core = "<" + t.Var + ">"
	default:
		core = t.Val.String()
	}
	if t.Pred == PredEQ {
		return core
	}
	return t.Pred.String() + " " + core
}

// AttrTest is the conjunction of terms applied to one attribute of a
// condition element. A bare value is a single EQ term; { ... } groups
// several terms.
type AttrTest struct {
	Attr  string
	Terms []TestTerm
}

// CondElem is one condition element (CE) of a production LHS.
type CondElem struct {
	Negated bool
	ElemVar string // element variable from { <x> (class ...) }, or ""
	Class   string
	Tests   []AttrTest
}

func (ce *CondElem) String() string {
	var b strings.Builder
	if ce.Negated {
		b.WriteString("- ")
	}
	if ce.ElemVar != "" {
		fmt.Fprintf(&b, "{ <%s> ", ce.ElemVar)
	}
	fmt.Fprintf(&b, "(%s", ce.Class)
	for _, at := range ce.Tests {
		fmt.Fprintf(&b, " ^%s", at.Attr)
		for _, tm := range at.Terms {
			if len(at.Terms) > 1 {
				b.WriteString(" {")
			}
			fmt.Fprintf(&b, " %s", tm)
			if len(at.Terms) > 1 {
				b.WriteString(" }")
			}
		}
	}
	b.WriteString(")")
	if ce.ElemVar != "" {
		b.WriteString(" }")
	}
	return b.String()
}

// Expr is an RHS value expression.
type Expr interface {
	exprNode()
	String() string
}

// LitExpr is a constant.
type LitExpr struct{ Val symtab.Value }

// VarExpr references an LHS-bound or RHS-bound variable.
type VarExpr struct{ Name string }

// ComputeExpr is OPS5 (compute a op b op c ...), evaluated left to
// right. Ops holds len(Operands)-1 operators from "+-*//\\" (\\ is mod).
type ComputeExpr struct {
	Operands []Expr
	Ops      []byte
}

// CallExpr invokes a registered external function in value position.
type CallExpr struct {
	Fn   string
	Args []Expr
}

// CrlfExpr is the (crlf) write directive.
type CrlfExpr struct{}

func (LitExpr) exprNode()     {}
func (VarExpr) exprNode()     {}
func (ComputeExpr) exprNode() {}
func (CallExpr) exprNode()    {}
func (CrlfExpr) exprNode()    {}

func (e LitExpr) String() string { return e.Val.String() }
func (e VarExpr) String() string { return "<" + e.Name + ">" }
func (e ComputeExpr) String() string {
	var b strings.Builder
	b.WriteString("(compute")
	for i, op := range e.Operands {
		if i > 0 {
			fmt.Fprintf(&b, " %c", e.Ops[i-1])
		}
		fmt.Fprintf(&b, " %s", op)
	}
	b.WriteString(")")
	return b.String()
}
func (e CallExpr) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "(%s", e.Fn)
	for _, a := range e.Args {
		fmt.Fprintf(&b, " %s", a)
	}
	b.WriteString(")")
	return b.String()
}
func (CrlfExpr) String() string { return "(crlf)" }

// AttrSet assigns one attribute in a make/modify action.
type AttrSet struct {
	Attr string
	Expr Expr
}

// ElemRef names a matched CE on the RHS: by 1-based position or by
// element variable.
type ElemRef struct {
	Index int    // 1-based CE index; 0 when Var is used
	Var   string // element variable name
}

func (r ElemRef) String() string {
	if r.Var != "" {
		return "<" + r.Var + ">"
	}
	return fmt.Sprintf("%d", r.Index)
}

// Action is an RHS action.
type Action interface {
	actionNode()
	String() string
}

// MakeAction asserts a new WME.
type MakeAction struct {
	Class string
	Sets  []AttrSet
}

// ModifyAction retracts a matched WME and re-asserts it with changed
// attributes (a new timetag, per OPS5 semantics).
type ModifyAction struct {
	Ref  ElemRef
	Sets []AttrSet
}

// RemoveAction retracts a matched WME.
type RemoveAction struct{ Ref ElemRef }

// BindAction binds an RHS variable to the value of an expression.
type BindAction struct {
	Var  string
	Expr Expr
}

// WriteAction prints its arguments.
type WriteAction struct{ Args []Expr }

// CallAction invokes a registered external function for effect; this
// is how SPAM performs its task-related geometric computation.
type CallAction struct {
	Fn   string
	Args []Expr
}

// HaltAction stops the recognize-act loop.
type HaltAction struct{}

func (MakeAction) actionNode()   {}
func (ModifyAction) actionNode() {}
func (RemoveAction) actionNode() {}
func (BindAction) actionNode()   {}
func (WriteAction) actionNode()  {}
func (CallAction) actionNode()   {}
func (HaltAction) actionNode()   {}

func setsString(sets []AttrSet) string {
	var b strings.Builder
	for _, s := range sets {
		fmt.Fprintf(&b, " ^%s %s", s.Attr, s.Expr)
	}
	return b.String()
}

func (a MakeAction) String() string { return fmt.Sprintf("(make %s%s)", a.Class, setsString(a.Sets)) }
func (a ModifyAction) String() string {
	return fmt.Sprintf("(modify %s%s)", a.Ref, setsString(a.Sets))
}
func (a RemoveAction) String() string { return fmt.Sprintf("(remove %s)", a.Ref) }
func (a BindAction) String() string   { return fmt.Sprintf("(bind <%s> %s)", a.Var, a.Expr) }
func (a WriteAction) String() string {
	var b strings.Builder
	b.WriteString("(write")
	for _, e := range a.Args {
		fmt.Fprintf(&b, " %s", e)
	}
	b.WriteString(")")
	return b.String()
}
func (a CallAction) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "(call %s", a.Fn)
	for _, e := range a.Args {
		fmt.Fprintf(&b, " %s", e)
	}
	b.WriteString(")")
	return b.String()
}
func (HaltAction) String() string { return "(halt)" }

// Production is one if-then rule.
type Production struct {
	Name string
	LHS  []*CondElem
	RHS  []Action
	// Specificity is the total number of attribute test terms plus class
	// tests, used by conflict resolution.
	Specificity int
}

func (p *Production) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "(p %s", p.Name)
	for _, ce := range p.LHS {
		fmt.Fprintf(&b, "\n   %s", ce)
	}
	b.WriteString("\n  -->")
	for _, a := range p.RHS {
		fmt.Fprintf(&b, "\n   %s", a)
	}
	b.WriteString(")")
	return b.String()
}

// ClassDecl is a literalize declaration.
type ClassDecl struct {
	Name  string
	Attrs []string
}

// Program is a parsed OPS5 source unit.
//
// A Program memoizes its compiled variants (see CompiledProgram), so
// it must not be copied by value once engines have been built from it;
// the parser and all call sites handle Programs by pointer.
type Program struct {
	Classes     []ClassDecl
	Productions []*Production
	Strategy    string   // "lex" (default) or "mea"
	Externals   []string // declared external function names

	// Compiled-variant cache, keyed on the compile-time switch,
	// capture. Guarded by compileMu; see compiled.go.
	compileMu sync.Mutex
	variants  map[bool]*CompiledProgram

	// Seed-class cache (seed.go): attribute->slot maps for batched
	// seed construction, built once per class name.
	seedMu      sync.Mutex
	seedClasses map[string]*SeedClass
}

// Production looks up a production by name, or nil.
func (pr *Program) Production(name string) *Production {
	for _, p := range pr.Productions {
		if p.Name == name {
			return p
		}
	}
	return nil
}
