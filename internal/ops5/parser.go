package ops5

import (
	"fmt"
	"strconv"

	"spampsm/internal/symtab"
)

// Parse parses OPS5 source text into a Program and runs semantic
// analysis over it.
func Parse(src string) (*Program, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog, err := p.program()
	if err != nil {
		return nil, err
	}
	if err := Analyze(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

// MustParse parses source that is known to be valid (generated rule
// sets); it panics on error.
func MustParse(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token { return p.toks[p.pos] }
func (p *parser) peek() token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}
func (p *parser) advance() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("ops5: line %d: %s", p.cur().line, fmt.Sprintf(format, args...))
}

func (p *parser) expect(k tokKind) (token, error) {
	if p.cur().kind != k {
		return token{}, p.errf("expected %s, found %s", k, p.cur())
	}
	return p.advance(), nil
}

func (p *parser) expectAtom(what string) (string, error) {
	if p.cur().kind != tokAtom {
		return "", p.errf("expected %s, found %s", what, p.cur())
	}
	return p.advance().text, nil
}

func (p *parser) program() (*Program, error) {
	prog := &Program{Strategy: "lex"}
	for p.cur().kind != tokEOF {
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		head, err := p.expectAtom("declaration head")
		if err != nil {
			return nil, err
		}
		switch head {
		case "literalize":
			name, err := p.expectAtom("class name")
			if err != nil {
				return nil, err
			}
			var attrs []string
			for p.cur().kind == tokAtom {
				attrs = append(attrs, p.advance().text)
			}
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			prog.Classes = append(prog.Classes, ClassDecl{Name: name, Attrs: attrs})
		case "strategy":
			s, err := p.expectAtom("strategy name")
			if err != nil {
				return nil, err
			}
			if s != "lex" && s != "mea" {
				return nil, p.errf("unknown strategy %q (want lex or mea)", s)
			}
			prog.Strategy = s
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
		case "external":
			for p.cur().kind == tokAtom {
				prog.Externals = append(prog.Externals, p.advance().text)
			}
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
		case "p":
			prod, err := p.production()
			if err != nil {
				return nil, err
			}
			prog.Productions = append(prog.Productions, prod)
		default:
			return nil, p.errf("unknown top-level form %q", head)
		}
	}
	return prog, nil
}

func (p *parser) production() (*Production, error) {
	name, err := p.expectAtom("production name")
	if err != nil {
		return nil, err
	}
	prod := &Production{Name: name}
	for p.cur().kind != tokArrow {
		ce, err := p.condElem()
		if err != nil {
			return nil, fmt.Errorf("%w (in production %s)", err, name)
		}
		prod.LHS = append(prod.LHS, ce)
	}
	p.advance() // -->
	for p.cur().kind != tokRParen {
		acts, err := p.action()
		if err != nil {
			return nil, fmt.Errorf("%w (in production %s)", err, name)
		}
		prod.RHS = append(prod.RHS, acts...)
	}
	p.advance() // )
	if len(prod.LHS) == 0 {
		return nil, fmt.Errorf("ops5: production %s has an empty LHS", name)
	}
	prod.Specificity = specificity(prod)
	return prod, nil
}

func specificity(prod *Production) int {
	n := 0
	for _, ce := range prod.LHS {
		n++ // the class test
		for _, at := range ce.Tests {
			n += len(at.Terms)
		}
	}
	return n
}

func (p *parser) condElem() (*CondElem, error) {
	negated := false
	if p.cur().kind == tokMinus {
		negated = true
		p.advance()
	}
	switch p.cur().kind {
	case tokLBrace:
		p.advance()
		var elemVar string
		var ce *CondElem
		var err error
		// { <x> (class ...) } or { (class ...) <x> }
		if p.cur().kind == tokVar {
			elemVar = p.advance().text
			ce, err = p.pattern()
			if err != nil {
				return nil, err
			}
		} else {
			ce, err = p.pattern()
			if err != nil {
				return nil, err
			}
			if p.cur().kind != tokVar {
				return nil, p.errf("expected element variable in { } condition, found %s", p.cur())
			}
			elemVar = p.advance().text
		}
		if _, err := p.expect(tokRBrace); err != nil {
			return nil, err
		}
		ce.ElemVar = elemVar
		ce.Negated = negated
		return ce, nil
	case tokLParen:
		ce, err := p.pattern()
		if err != nil {
			return nil, err
		}
		ce.Negated = negated
		return ce, nil
	default:
		return nil, p.errf("expected condition element, found %s", p.cur())
	}
}

// pattern parses "(class ^attr test ...)".
func (p *parser) pattern() (*CondElem, error) {
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	class, err := p.expectAtom("class name")
	if err != nil {
		return nil, err
	}
	ce := &CondElem{Class: class}
	for p.cur().kind == tokCaret {
		p.advance()
		attr, err := p.expectAtom("attribute name")
		if err != nil {
			return nil, err
		}
		terms, err := p.attrTerms()
		if err != nil {
			return nil, err
		}
		ce.Tests = append(ce.Tests, AttrTest{Attr: attr, Terms: terms})
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	return ce, nil
}

// attrTerms parses the value position of ^attr: a single term or a
// conjunctive { term ... } group.
func (p *parser) attrTerms() ([]TestTerm, error) {
	if p.cur().kind == tokLBrace {
		p.advance()
		var terms []TestTerm
		for p.cur().kind != tokRBrace {
			t, err := p.term()
			if err != nil {
				return nil, err
			}
			terms = append(terms, t)
		}
		p.advance() // }
		if len(terms) == 0 {
			return nil, p.errf("empty { } test group")
		}
		return terms, nil
	}
	t, err := p.term()
	if err != nil {
		return nil, err
	}
	return []TestTerm{t}, nil
}

// term parses one test term: [pred] value | << constants >>.
func (p *parser) term() (TestTerm, error) {
	pred := PredEQ
	if p.cur().kind == tokPred {
		switch p.advance().text {
		case "=":
			pred = PredEQ
		case "<>":
			pred = PredNE
		case "<":
			pred = PredLT
		case "<=":
			pred = PredLE
		case ">":
			pred = PredGT
		case ">=":
			pred = PredGE
		case "<=>":
			pred = PredSame
		}
	}
	switch p.cur().kind {
	case tokDLAngle:
		if pred != PredEQ {
			return TestTerm{}, p.errf("disjunction << >> allows only equality")
		}
		p.advance()
		var disj []symtab.Value
		for p.cur().kind == tokAtom {
			disj = append(disj, p.advance().value())
		}
		if _, err := p.expect(tokDRAngle); err != nil {
			return TestTerm{}, err
		}
		if len(disj) == 0 {
			return TestTerm{}, p.errf("empty << >> disjunction")
		}
		return TestTerm{Pred: PredEQ, Disj: disj}, nil
	case tokVar:
		return TestTerm{Pred: pred, Var: p.advance().text}, nil
	case tokAtom:
		return TestTerm{Pred: pred, Val: p.advance().value()}, nil
	default:
		return TestTerm{}, p.errf("expected test value, found %s", p.cur())
	}
}

// action parses one RHS action form. It returns a slice because a
// single (remove a b c) form expands to one action per reference.
func (p *parser) action() ([]Action, error) {
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	head, err := p.expectAtom("action name")
	if err != nil {
		return nil, err
	}
	one := func(a Action) []Action { return []Action{a} }
	switch head {
	case "make":
		class, err := p.expectAtom("class name")
		if err != nil {
			return nil, err
		}
		sets, err := p.attrSets()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return one(MakeAction{Class: class, Sets: sets}), nil
	case "modify":
		ref, err := p.elemRef()
		if err != nil {
			return nil, err
		}
		sets, err := p.attrSets()
		if err != nil {
			return nil, err
		}
		if len(sets) == 0 {
			return nil, p.errf("modify with no attribute changes")
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return one(ModifyAction{Ref: ref, Sets: sets}), nil
	case "remove":
		// OPS5 allows several element references in one remove; they
		// are parsed into one action per reference.
		var refs []ElemRef
		for p.cur().kind != tokRParen {
			ref, err := p.elemRef()
			if err != nil {
				return nil, err
			}
			refs = append(refs, ref)
		}
		p.advance()
		if len(refs) == 0 {
			return nil, p.errf("remove with no element references")
		}
		acts := make([]Action, len(refs))
		for i, r := range refs {
			acts[i] = RemoveAction{Ref: r}
		}
		return acts, nil
	case "bind":
		if p.cur().kind != tokVar {
			return nil, p.errf("bind expects a variable, found %s", p.cur())
		}
		name := p.advance().text
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return one(BindAction{Var: name, Expr: e}), nil
	case "write":
		var args []Expr
		for p.cur().kind != tokRParen {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			args = append(args, e)
		}
		p.advance()
		return one(WriteAction{Args: args}), nil
	case "call":
		fn, err := p.expectAtom("function name")
		if err != nil {
			return nil, err
		}
		var args []Expr
		for p.cur().kind != tokRParen {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			args = append(args, e)
		}
		p.advance()
		return one(CallAction{Fn: fn, Args: args}), nil
	case "halt":
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return one(HaltAction{}), nil
	default:
		return nil, p.errf("unknown action %q", head)
	}
}

func (p *parser) attrSets() ([]AttrSet, error) {
	var sets []AttrSet
	for p.cur().kind == tokCaret {
		p.advance()
		attr, err := p.expectAtom("attribute name")
		if err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		sets = append(sets, AttrSet{Attr: attr, Expr: e})
	}
	return sets, nil
}

func (p *parser) elemRef() (ElemRef, error) {
	switch p.cur().kind {
	case tokVar:
		return ElemRef{Var: p.advance().text}, nil
	case tokAtom:
		t := p.advance()
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 1 {
			return ElemRef{}, p.errf("element reference must be a positive integer or element variable, found %q", t.text)
		}
		return ElemRef{Index: n}, nil
	default:
		return ElemRef{}, p.errf("expected element reference, found %s", p.cur())
	}
}

// isComputeOp reports whether an action/expr token is a compute operator.
func isComputeOp(t token) (byte, bool) {
	if t.kind == tokMinus {
		return '-', true
	}
	if t.kind == tokAtom {
		switch t.text {
		case "+":
			return '+', true
		case "*":
			return '*', true
		case "//":
			return '/', true
		case "\\\\", "\\":
			return '%', true
		}
	}
	return 0, false
}

func (p *parser) expr() (Expr, error) {
	switch p.cur().kind {
	case tokVar:
		return VarExpr{Name: p.advance().text}, nil
	case tokAtom:
		return LitExpr{Val: p.advance().value()}, nil
	case tokLParen:
		p.advance()
		head, err := p.expectAtom("expression head")
		if err != nil {
			return nil, err
		}
		switch head {
		case "crlf":
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			return CrlfExpr{}, nil
		case "compute":
			first, err := p.expr()
			if err != nil {
				return nil, err
			}
			ce := ComputeExpr{Operands: []Expr{first}}
			for p.cur().kind != tokRParen {
				op, ok := isComputeOp(p.cur())
				if !ok {
					return nil, p.errf("expected compute operator, found %s", p.cur())
				}
				p.advance()
				operand, err := p.expr()
				if err != nil {
					return nil, err
				}
				ce.Ops = append(ce.Ops, op)
				ce.Operands = append(ce.Operands, operand)
			}
			p.advance()
			return ce, nil
		default:
			// External function in value position.
			var args []Expr
			for p.cur().kind != tokRParen {
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				args = append(args, e)
			}
			p.advance()
			return CallExpr{Fn: head, Args: args}, nil
		}
	default:
		return nil, p.errf("expected expression, found %s", p.cur())
	}
}
