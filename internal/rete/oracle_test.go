package rete

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"spampsm/internal/symtab"
	"spampsm/internal/wm"
)

// This file checks the Rete network against a brute-force oracle: a
// naive matcher that recomputes the full instantiation set from
// scratch after every working-memory change. Random productions and
// random add/remove sequences must produce identical conflict sets.

// oraclePattern mirrors Pattern for the naive matcher.
type oraclePattern struct {
	negated bool
	class   string
	filter  func(*wm.WME) bool
	tests   []JoinTest
}

// naiveMatch enumerates all instantiations of a pattern chain over the
// live WMEs, as timetag tuples of the positive CEs.
func naiveMatch(pats []oraclePattern, live []*wm.WME) []string {
	var out []string
	bound := make([]*wm.WME, len(pats))
	var rec func(i int)
	rec = func(i int) {
		if i == len(pats) {
			var tags []string
			for j, w := range bound {
				if !pats[j].negated {
					tags = append(tags, fmt.Sprintf("%d", w.TimeTag))
				}
			}
			out = append(out, strings.Join(tags, ","))
			return
		}
		p := pats[i]
		candidateOK := func(w *wm.WME) bool {
			if w.Class.Name != p.class {
				return false
			}
			if p.filter != nil && !p.filter(w) {
				return false
			}
			for _, ts := range p.tests {
				b := bound[ts.TokenLevel]
				if b == nil {
					return false
				}
				pred := ts.Pred
				if pred == nil {
					pred = eqPred
				}
				if !pred(w.GetAt(ts.OwnAttr), b.GetAt(ts.TokenAttr)) {
					return false
				}
			}
			return true
		}
		if p.negated {
			for _, w := range live {
				if candidateOK(w) {
					return // negation blocked
				}
			}
			bound[i] = nil
			rec(i + 1)
			return
		}
		for _, w := range live {
			if candidateOK(w) {
				bound[i] = w
				rec(i + 1)
			}
		}
		bound[i] = nil
	}
	rec(0)
	sort.Strings(out)
	return out
}

// reteInstantiations extracts the live instantiation tag tuples of one
// production from the recorder.
func reteInstantiations(rec *recorder, p *PNode) []string {
	var out []string
	for tok := range rec.live[p] {
		var tags []string
		for _, w := range tok.WMEs() {
			tags = append(tags, fmt.Sprintf("%d", w.TimeTag))
		}
		out = append(out, strings.Join(tags, ","))
	}
	sort.Strings(out)
	return out
}

// oracleRng is a deterministic generator for the stress test.
type oracleRng struct{ s uint64 }

func (r *oracleRng) next() uint64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return r.s >> 11
}
func (r *oracleRng) intn(n int) int { return int(r.next() % uint64(n)) }

// genPattern builds a random pattern over the test classes. Values are
// drawn from a tiny domain so joins and negations collide often.
func genPattern(rng *oracleRng, classes []*wm.ClassDef, level int, negated bool) (Pattern, oraclePattern) {
	cd := classes[rng.intn(len(classes))]
	nAttrs := cd.NumAttrs()
	var filter func(*wm.WME) bool
	var consts map[int][]symtab.Value
	sig := cd.Name
	if rng.intn(2) == 0 {
		attr := rng.intn(nAttrs)
		val := symtab.Int(int64(rng.intn(3)))
		filter = func(w *wm.WME) bool { return w.GetAt(attr).Equal(val) }
		consts = map[int][]symtab.Value{attr: {val}}
		sig = fmt.Sprintf("%s^%d=%s", cd.Name, attr, val)
	}
	var tests []JoinTest
	if level > 0 && rng.intn(3) > 0 {
		n := 1 + rng.intn(2)
		for k := 0; k < n; k++ {
			tl := rng.intn(level)
			jt := JoinTest{
				OwnAttr:    rng.intn(nAttrs),
				TokenLevel: tl,
				TokenAttr:  rng.intn(2), // test classes have >= 2 attrs
			}
			switch rng.intn(4) {
			case 0:
				jt.Pred = func(a, b symtab.Value) bool { return !a.Equal(b) }
			case 1:
				jt.Pred = eqPred // equality as a call, beside the inline nil
			}
			tests = append(tests, jt)
		}
	}
	pat := Pattern{
		Negated:    negated,
		Class:      cd.Name,
		Signature:  fmt.Sprintf("%s/%d", sig, rng.intn(1000000)), // unshared: joins differ
		Filter:     filter,
		FilterCost: CostAlphaFilterTerm,
		Consts:     consts,
		Tests:      tests,
	}
	op := oraclePattern{negated: negated, class: cd.Name, filter: filter, tests: tests}
	return pat, op
}

func TestOracleRandomizedConflictSets(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := &oracleRng{s: seed * 977}
			cs := wm.NewClasses()
			ca, _ := cs.Declare("alpha", "x", "y")
			cb, _ := cs.Declare("beta", "u", "v", "w")
			classes := []*wm.ClassDef{ca, cb}
			mem := wm.NewMemory(cs)
			rec := newRecorder()
			net := New(rec)

			// 3-6 random productions of 1-4 CEs each.
			nProds := 3 + rng.intn(4)
			prods := make([]*PNode, 0, nProds)
			oracles := make([][]oraclePattern, 0, nProds)
			for pi := 0; pi < nProds; pi++ {
				nCEs := 1 + rng.intn(4)
				var pats []Pattern
				var ops []oraclePattern
				for ci := 0; ci < nCEs; ci++ {
					negated := ci > 0 && rng.intn(4) == 0
					pat, op := genPattern(rng, classes, ci, negated)
					pats = append(pats, pat)
					ops = append(ops, op)
				}
				p, err := net.AddProduction(fmt.Sprintf("p%d", pi), pats, nil)
				if err != nil {
					t.Fatal(err)
				}
				prods = append(prods, p)
				oracles = append(oracles, ops)
			}

			// Random WM mutation sequence.
			var liveWMEs []*wm.WME
			check := func(step int) {
				t.Helper()
				for pi, p := range prods {
					want := naiveMatch(oracles[pi], liveWMEs)
					got := reteInstantiations(rec, p)
					if strings.Join(want, ";") != strings.Join(got, ";") {
						t.Fatalf("step %d, production p%d:\n oracle: %v\n rete:   %v",
							step, pi, want, got)
					}
				}
			}
			for step := 0; step < 60; step++ {
				if len(liveWMEs) == 0 || rng.intn(3) > 0 {
					cd := classes[rng.intn(len(classes))]
					sets := map[string]symtab.Value{}
					for _, a := range cd.Attrs {
						sets[a] = symtab.Int(int64(rng.intn(3)))
					}
					w, err := mem.Make(cd.Name, sets)
					if err != nil {
						t.Fatal(err)
					}
					net.Add(w)
					liveWMEs = append(liveWMEs, w)
				} else {
					i := rng.intn(len(liveWMEs))
					w := liveWMEs[i]
					if err := mem.Remove(w); err != nil {
						t.Fatal(err)
					}
					net.Remove(w)
					liveWMEs = append(liveWMEs[:i], liveWMEs[i+1:]...)
				}
				check(step)
			}
			// Drain: remove everything; all instantiations must retract.
			for len(liveWMEs) > 0 {
				w := liveWMEs[len(liveWMEs)-1]
				liveWMEs = liveWMEs[:len(liveWMEs)-1]
				if err := mem.Remove(w); err != nil {
					t.Fatal(err)
				}
				net.Remove(w)
			}
			check(-1)
			for _, p := range prods {
				if rec.count(p) != 0 {
					t.Errorf("instantiations remain after draining WM")
				}
			}
		})
	}
}
