package ops5

import (
	"fmt"
	"sort"
	"strings"

	"spampsm/internal/rete"
	"spampsm/internal/symtab"
	"spampsm/internal/wm"
)

// varLoc is where an LHS variable is bound: condition element index
// (0-based, counting all CEs) and attribute slot.
type varLoc struct {
	ce   int
	attr int
}

// compiledProd is a production lowered to Rete patterns plus the
// variable-binding map the RHS evaluator uses.
type compiledProd struct {
	prod     *Production
	patterns []rete.Pattern
	varLocs  map[string]varLoc
	// elemLevels maps element variables to their CE index.
	elemLevels map[string]int
	// rhs is parallel to prod.RHS: for a make or modify action, the
	// value-vector slot each of its attribute sets writes (nil for
	// other actions), so firing fills a vector instead of building an
	// attribute map.
	rhs   [][]int
	pnode *rete.PNode
}

// refLevel resolves an RHS element reference to its CE index.
func (cp *compiledProd) refLevel(r ElemRef) (int, error) {
	if r.Var == "" {
		return r.Index - 1, nil
	}
	l, ok := cp.elemLevels[r.Var]
	if !ok {
		return 0, fmt.Errorf("unknown element variable <%s>", r.Var)
	}
	return l, nil
}

// constTest is one constant test of an alpha filter.
type constTest struct {
	attr int
	pred Pred
	val  symtab.Value
	disj []symtab.Value
}

// intraTest compares two attributes of the same WME (a variable used
// twice within one CE).
type intraTest struct {
	attrA int
	pred  Pred
	attrB int
}

// predFn is a join test's predicate: nil for equality, which the
// network compares inline, else a call of p.Apply.
func predFn(p Pred) rete.PredFn {
	if p == PredEQ {
		return nil
	}
	return func(own, bound symtab.Value) bool { return p.Apply(own, bound) }
}

// compileProduction lowers a production to Rete patterns. classes must
// already contain every class the production references (sema
// guarantees this for parsed programs).
func compileProduction(p *Production, classes *wm.Classes) (*compiledProd, error) {
	cp := &compiledProd{
		prod:       p,
		varLocs:    map[string]varLoc{},
		elemLevels: map[string]int{},
	}
	for i, ce := range p.LHS {
		cd := classes.Lookup(ce.Class)
		if cd == nil {
			return nil, fmt.Errorf("ops5: production %s: class %s not declared", p.Name, ce.Class)
		}
		if ce.ElemVar != "" {
			cp.elemLevels[ce.ElemVar] = i
		}
		var consts []constTest
		// eqs are the equality-constant conjuncts among consts, as data,
		// for the network's constant-test dispatch; one per attribute is
		// all it uses. <>, relational and intra-element tests are not
		// equalities with a constant and stay in the filter alone.
		eqs := map[int][]symtab.Value{}
		var intras []intraTest
		var joins []rete.JoinTest
		localLocs := map[string]varLoc{}
		for _, at := range ce.Tests {
			ai := cd.AttrIndex(at.Attr)
			if ai < 0 {
				return nil, fmt.Errorf("ops5: production %s: class %s has no attribute %s", p.Name, ce.Class, at.Attr)
			}
			for _, tm := range at.Terms {
				switch {
				case tm.Disj != nil:
					consts = append(consts, constTest{attr: ai, pred: PredEQ, disj: tm.Disj})
					eqs[ai] = tm.Disj
				case !tm.IsVar():
					consts = append(consts, constTest{attr: ai, pred: tm.Pred, val: tm.Val})
					if tm.Pred == PredEQ {
						eqs[ai] = []symtab.Value{tm.Val}
					}
				default:
					v := tm.Var
					if loc, ok := localLocs[v]; ok {
						// Bound earlier within this CE: intra-element test.
						intras = append(intras, intraTest{attrA: ai, pred: tm.Pred, attrB: loc.attr})
					} else if loc, ok := cp.varLocs[v]; ok && loc.ce < i {
						joins = append(joins, rete.JoinTest{
							OwnAttr: ai, TokenLevel: loc.ce, TokenAttr: loc.attr,
							Pred: predFn(tm.Pred),
						})
					} else if tm.Pred == PredEQ {
						// First occurrence binds.
						localLocs[v] = varLoc{ce: i, attr: ai}
						if !ce.Negated {
							cp.varLocs[v] = varLoc{ce: i, attr: ai}
						}
					} else {
						return nil, fmt.Errorf("ops5: production %s: variable <%s> used with %s before binding", p.Name, v, tm.Pred)
					}
				}
			}
		}
		cp.patterns = append(cp.patterns, buildPattern(ce, cd, consts, eqs, intras, joins))
	}
	cp.rhs = make([][]int, len(p.RHS))
	for i, a := range p.RHS {
		var class string
		var sets []AttrSet
		switch act := a.(type) {
		case MakeAction:
			class, sets = act.Class, act.Sets
		case ModifyAction:
			// A reference sema would reject is left for resolveRef to
			// report when the action fires.
			level, err := cp.refLevel(act.Ref)
			if err != nil || level < 0 || level >= len(p.LHS) {
				continue
			}
			class, sets = p.LHS[level].Class, act.Sets
		default:
			continue
		}
		cd := classes.Lookup(class)
		if cd == nil {
			return nil, fmt.Errorf("ops5: production %s: make of undeclared class %s", p.Name, class)
		}
		slots := make([]int, len(sets))
		for k, s := range sets {
			if slots[k] = cd.AttrIndex(s.Attr); slots[k] < 0 {
				return nil, fmt.Errorf("ops5: production %s: class %s has no attribute %s", p.Name, class, s.Attr)
			}
		}
		cp.rhs[i] = slots
	}
	return cp, nil
}

// buildPattern assembles the alpha filter, its cost and dedup
// signature, and the join tests for one CE.
func buildPattern(ce *CondElem, cd *wm.ClassDef, consts []constTest, eqs map[int][]symtab.Value, intras []intraTest, joins []rete.JoinTest) rete.Pattern {
	nTests := len(consts) + len(intras)
	filter := func(w *wm.WME) bool {
		for _, ct := range consts {
			v := w.GetAt(ct.attr)
			if ct.disj != nil {
				ok := false
				for _, d := range ct.disj {
					if v.Equal(d) {
						ok = true
						break
					}
				}
				if !ok {
					return false
				}
				continue
			}
			if !ct.pred.Apply(v, ct.val) {
				return false
			}
		}
		for _, it := range intras {
			if !it.pred.Apply(w.GetAt(it.attrA), w.GetAt(it.attrB)) {
				return false
			}
		}
		return true
	}
	var filterFn func(*wm.WME) bool
	if nTests > 0 {
		filterFn = filter
	}
	return rete.Pattern{
		Negated:    ce.Negated,
		Class:      ce.Class,
		Signature:  patternSignature(ce.Class, consts, intras),
		Filter:     filterFn,
		FilterCost: float64(max(1, nTests)) * rete.CostAlphaFilterTerm,
		Consts:     eqs,
		Tests:      joins,
	}
}

// patternSignature canonically names a CE's constant tests so that
// equivalent CEs across productions share one alpha memory.
func patternSignature(class string, consts []constTest, intras []intraTest) string {
	parts := make([]string, 0, len(consts)+len(intras))
	for _, ct := range consts {
		if ct.disj != nil {
			ds := make([]string, len(ct.disj))
			for i, d := range ct.disj {
				ds[i] = d.String()
			}
			parts = append(parts, fmt.Sprintf("%d<<%s", ct.attr, strings.Join(ds, ",")))
			continue
		}
		parts = append(parts, fmt.Sprintf("%d%s%s", ct.attr, ct.pred, ct.val))
	}
	for _, it := range intras {
		parts = append(parts, fmt.Sprintf("%d%s@%d", it.attrA, it.pred, it.attrB))
	}
	sort.Strings(parts)
	return class + "|" + strings.Join(parts, ";")
}
