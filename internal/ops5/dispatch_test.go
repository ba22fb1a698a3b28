package ops5

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"spampsm/internal/rete"
	"spampsm/internal/symtab"
	"spampsm/internal/wm"
)

// The dispatch oracle: rule sets generated as OPS5 source, compiled
// into the production template — whose Add dispatches a WME on the
// constant tests compileProduction hands the network as data — and into
// a swept one (compiled without them), whose Add offers the WME to every
// alpha memory of the class. Driven with the same working-memory
// changes the two must agree on Counters after every change, on the
// conflict set's contents and on the order its instantiations were
// activated in; with capture on, where a dispatching network still
// records every memory's activation, also on the activation forests.
//
// It is the mutation check for both layers: keying a memory on a <>
// test in compileProduction, walking a class's candidates out of memory
// order in rete.Network.Add, or emitting a rejected memory's activation
// out of class order there under capture, turns it red.

// nilConst stands for the nil constant in generated source; the parser
// has no literal for it, so dispatchProgram rewrites the symbol.
const nilConst = "NILCONST"

// dispatchConsts is the pool constant tests and WME values are drawn
// from: symbols, integers, floats equal to integers, both zeros, nil.
var dispatchConsts = []string{"red", "blue", "green", "0", "5", "55", "55.0", "5.0", "0.0", "-0.0", "2.5", nilConst}

// dispatchStrangers are WME values no rule mentions.
var dispatchStrangers = []symtab.Value{symtab.Sym("zz"), symtab.Int(99), symtab.Float(7.25), symtab.Nil, symtab.Float(-55)}

// genAttrTest writes one attribute's test: an equality constant or a
// disjunction, which key the memory, or one of the forms that must land
// it in the residual.
func genAttrTest(rng *rand.Rand, attr string) string {
	c := func() string { return dispatchConsts[rng.Intn(len(dispatchConsts))] }
	num := func() string { return []string{"0", "2", "5", "7", "55.0", "60"}[rng.Intn(6)] }
	switch rng.Intn(9) {
	case 0, 1, 2:
		return fmt.Sprintf("^%s %s", attr, c())
	case 3:
		return fmt.Sprintf("^%s <> %s", attr, c())
	case 4:
		return fmt.Sprintf("^%s < %s", attr, num())
	case 5:
		return fmt.Sprintf("^%s >= %s", attr, num())
	case 6:
		return fmt.Sprintf("^%s { <> %s <> %s }", attr, c(), c())
	case 7:
		// An equality with a relational test beside it.
		return fmt.Sprintf("^%s { %s >= %s }", attr, num(), num())
	default:
		parts := make([]string, 2+rng.Intn(3))
		for i := range parts {
			parts[i] = c()
		}
		return fmt.Sprintf("^%s << %s >>", attr, strings.Join(parts, " "))
	}
}

// genDispatchSource writes one rule set over four classes: k, most of
// whose memories are keyed on ^a with a residual beside them (other
// tests on ^a, intra-element tests, no test at all); mix, whose
// memories each test a different attribute; one, which has a single
// memory; and free, which no constant test mentions. Condition
// elements after the first join it on ^c, half of the time.
func genDispatchSource(rng *rand.Rand) string {
	var b strings.Builder
	for _, class := range []string{"k", "mix", "one", "free"} {
		fmt.Fprintf(&b, "(literalize %s a b d c)\n", class)
	}
	b.WriteString("(literalize out n)\n")
	oneTest := genAttrTest(rng, "a")
	ces, mixSlot := 0, 0
	ce := func(first bool) string {
		ces++
		var tests []string
		class := []string{"k", "k", "k", "k", "mix", "one", "free"}[rng.Intn(7)]
		switch class {
		case "k":
			switch r := rng.Intn(10); {
			case r < 7:
				tests = append(tests, genAttrTest(rng, "a"))
				if rng.Intn(3) == 0 {
					tests = append(tests, genAttrTest(rng, "b"))
				}
			case r == 7:
				// Intra-element: a variable twice within the element.
				tests = append(tests, fmt.Sprintf("^a <v%d> ^b %s<v%d>", ces, []string{"", "<> "}[rng.Intn(2)], ces))
			}
		case "mix":
			tests = append(tests, genAttrTest(rng, []string{"a", "b", "d"}[mixSlot%3]))
			mixSlot++
		case "one":
			tests = append(tests, oneTest)
		}
		neg := ""
		switch {
		case first:
			tests = append(tests, "^c <j>")
		case rng.Intn(2) == 0:
			tests = append(tests, "^c <j>")
			if rng.Intn(4) == 0 {
				neg = "- "
			}
		}
		return fmt.Sprintf("%s(%s %s)", neg, class, strings.Join(tests, " "))
	}
	for p, n := 0, 10+rng.Intn(12); p < n; p++ {
		fmt.Fprintf(&b, "(p r%d %s", p, ce(true))
		for i, more := 0, rng.Intn(3); i < more; i++ {
			b.WriteString(" " + ce(false))
		}
		fmt.Fprintf(&b, " --> (make out ^n %d))\n", p)
	}
	return b.String()
}

// dispatchProgram parses generated source and rewrites the nil
// placeholder into the nil constant.
func dispatchProgram(t testing.TB, src string) *Program {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("generated source does not parse: %v\n%s", err, src)
	}
	placeholder := symtab.Sym(nilConst)
	for _, p := range prog.Productions {
		for _, ce := range p.LHS {
			for _, at := range ce.Tests {
				for i := range at.Terms {
					tm := &at.Terms[i]
					if !tm.IsVar() && tm.Disj == nil && tm.Val == placeholder {
						tm.Val = symtab.Nil
					}
					for k, d := range tm.Disj {
						if d == placeholder {
							tm.Disj[k] = symtab.Nil
						}
					}
				}
			}
		}
	}
	return prog
}

// dispatchValue parses one pool constant as a WME value.
func dispatchValue(s string) symtab.Value {
	if s == nilConst {
		return symtab.Nil
	}
	return symtab.Parse(s)
}

// wmChange is one step of a script: assert a WME of class with vals,
// or (vals nil) remove the live WME at index.
type wmChange struct {
	class string
	vals  []symtab.Value
	index int
}

// genDispatchScript draws WMEs from the rule set's own constants plus
// strangers, and removes some again.
func genDispatchScript(rng *rand.Rand, steps int) []wmChange {
	var script []wmChange
	live := 0
	for len(script) < steps {
		if live > 0 && rng.Intn(4) == 0 {
			script = append(script, wmChange{index: rng.Intn(live)})
			live--
			continue
		}
		vals := make([]symtab.Value, 4)
		for i := range vals {
			if rng.Intn(5) == 0 {
				vals[i] = dispatchStrangers[rng.Intn(len(dispatchStrangers))]
			} else {
				vals[i] = dispatchValue(dispatchConsts[rng.Intn(len(dispatchConsts))])
			}
		}
		script = append(script, wmChange{class: []string{"k", "k", "k", "mix", "one", "free"}[rng.Intn(6)], vals: vals})
		live++
	}
	return script
}

// orderRecorder is an agenda that logs conflict-set events in the
// order the network raises them and keeps the live set.
type orderRecorder struct {
	events []string
	live   map[string]int
}

func (r *orderRecorder) key(p *rete.PNode, t *rete.Token) string {
	return fmt.Sprint(p.Name, t.AppendTimeTags(nil))
}

func (r *orderRecorder) Activate(p *rete.PNode, t *rete.Token) {
	k := r.key(p, t)
	r.events = append(r.events, "+"+k)
	r.live[k]++
}

func (r *orderRecorder) Deactivate(p *rete.PNode, t *rete.Token) {
	k := r.key(p, t)
	r.events = append(r.events, "-"+k)
	if r.live[k]--; r.live[k] == 0 {
		delete(r.live, k)
	}
}

// dispatchRun is what one replay of a script observed.
type dispatchRun struct {
	events   []string
	counters []rete.Counters
	forests  string
	live     []string
}

func renderActivations(b *strings.Builder, forest []*rete.Activation) {
	for _, a := range forest {
		fmt.Fprintf(b, "%s(%g)[", a.Label, a.Cost)
		renderActivations(b, a.Children)
		b.WriteString("]")
	}
}

// replayDispatch drives a script through a fresh network of the
// compiled program, one batch per change.
func replayDispatch(t testing.TB, cp *CompiledProgram, script []wmChange, capture bool) *dispatchRun {
	t.Helper()
	rec := &orderRecorder{live: map[string]int{}}
	net := cp.tmpl.NewNetworkScratch(rec, nil)
	net.SetCapture(capture)
	mem := wm.NewMemory(cp.classes)
	run := &dispatchRun{}
	var forests strings.Builder
	var live []*wm.WME
	for i, ch := range script {
		net.StartBatch()
		if ch.vals != nil {
			w, err := mem.MakeVals(ch.class, ch.vals)
			if err != nil {
				t.Fatal(err)
			}
			net.Add(w)
			live = append(live, w)
		} else {
			w := live[ch.index]
			live = append(live[:ch.index], live[ch.index+1:]...)
			if err := mem.Remove(w); err != nil {
				t.Fatal(err)
			}
			net.Remove(w)
		}
		run.events = append(run.events, fmt.Sprintf("#%d", i))
		run.events = append(run.events, rec.events...)
		rec.events = rec.events[:0]
		run.counters = append(run.counters, net.Totals())
		fmt.Fprintf(&forests, "#%d:", i)
		renderActivations(&forests, net.TakeBatch())
	}
	for k, n := range rec.live {
		run.live = append(run.live, fmt.Sprintf("%s×%d", k, n))
	}
	sort.Strings(run.live)
	run.forests = forests.String()
	return run
}

// sameDispatchRun fails unless two replays observed the same thing; it
// reports the first difference.
func sameDispatchRun(t testing.TB, what string, want, got *dispatchRun) {
	t.Helper()
	for i := range want.counters {
		if want.counters[i] != got.counters[i] {
			t.Fatalf("%s: counters after change %d: %+v, want %+v", what, i, got.counters[i], want.counters[i])
		}
	}
	if len(want.events) != len(got.events) {
		t.Fatalf("%s: %d conflict-set events, want %d", what, len(got.events), len(want.events))
	}
	for i := range want.events {
		if want.events[i] != got.events[i] {
			t.Fatalf("%s: conflict-set event %d is %s, want %s", what, i, got.events[i], want.events[i])
		}
	}
	if strings.Join(want.live, ";") != strings.Join(got.live, ";") {
		t.Fatalf("%s: conflict set %v, want %v", what, got.live, want.live)
	}
	if want.forests != got.forests {
		t.Fatalf("%s: activation forests differ", what)
	}
}

// compileBoth compiles a program for the dispatching and the sweeping
// matcher; the two must fail together or not at all.
func compileBoth(t testing.TB, prog *Program, capture bool) (dispatched, swept *CompiledProgram) {
	t.Helper()
	dispatched, derr := compileVariant(prog, false, capture)
	swept, serr := compileVariant(prog, true, capture)
	if (derr == nil) != (serr == nil) {
		t.Fatalf("the dispatching compile says %v and the sweeping one %v", derr, serr)
	}
	if derr != nil {
		return nil, nil
	}
	return dispatched, swept
}

// sameDispatchRuns replays a script through both compiles of a program,
// capture off and on, and requires the two matchers to agree each time;
// the captured runs must also agree with the uncaptured ones on
// everything but the forests. It returns the swept capture-off run, or
// nil when the program does not compile.
func sameDispatchRuns(t testing.TB, what func(string) string, prog *Program, script []wmChange) *dispatchRun {
	t.Helper()
	var plain *dispatchRun
	for _, capture := range []bool{false, true} {
		dispatched, swept := compileBoth(t, prog, capture)
		if dispatched == nil {
			return nil
		}
		want := replayDispatch(t, swept, script, capture)
		leg := "dispatched vs swept"
		if capture {
			leg = "captured, dispatched vs swept"
		}
		sameDispatchRun(t, what(leg), want, replayDispatch(t, dispatched, script, capture))
		if !capture {
			plain = want
			continue
		}
		want.forests = plain.forests
		sameDispatchRun(t, what("captured vs not"), want, plain)
	}
	return plain
}

func TestDifferentialDispatchVsSweep(t *testing.T) {
	matched := 0
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := genDispatchSource(rng)
		script := genDispatchScript(rng, 70)
		prog := dispatchProgram(t, src)
		what := func(s string) string { return fmt.Sprintf("seed %d, %s\n%s", seed, s, src) }

		swept := sameDispatchRuns(t, what, prog, script)
		if swept == nil {
			t.Fatalf("seed %d: generated source does not compile\n%s", seed, src)
		}
		matched += len(swept.events) - len(script)
	}
	if matched < 1000 {
		t.Fatalf("the generated rule sets raised %d conflict-set events over 60 seeds: the oracle is close to vacuous", matched)
	}
}

// FuzzCompileDispatch: any source the parser accepts compiles without a
// panic, for both matchers alike, and for working memories synthesized
// from the source's own constants the dispatching and the sweeping
// network agree on every counter and every conflict-set event, and,
// capturing, on every activation forest.
func FuzzCompileDispatch(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(strings.ReplaceAll(genDispatchSource(rand.New(rand.NewSource(seed))), nilConst, "none"))
	}
	for _, tc := range diffPrograms {
		f.Add(tc.src)
	}
	f.Add("(literalize a x)(p r (a ^x << 1 1.0 NaN >>) - (a ^x { <> 2 <> nan }) --> (halt))")
	f.Add("(literalize a x y)(p r (a ^x <v> ^y { <v> > 0x10 }) (a ^x -0.0 ^y Inf) --> (remove 1))")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 2048 {
			return
		}
		prog, err := Parse(src)
		if err != nil || len(prog.Productions) > 12 {
			return
		}
		for _, p := range prog.Productions {
			if len(p.LHS) > 3 {
				return // three-way cross products are as far as a fuzz run should go
			}
		}
		sameDispatchRuns(t, func(s string) string { return s }, prog, synthesizeScript(prog))
	})
}

// synthesizeScript builds, for every class of the program, WMEs whose
// values are the constants the program tests that class's attributes
// against, plus a stranger and nil: at most 12 a class, each attribute
// cycling through its own constants at its own stride.
func synthesizeScript(prog *Program) []wmChange {
	consts := map[string][]symtab.Value{} // "class^attr" -> constants
	for _, p := range prog.Productions {
		for _, ce := range p.LHS {
			for _, at := range ce.Tests {
				k := ce.Class + "^" + at.Attr
				for _, tm := range at.Terms {
					switch {
					case tm.Disj != nil:
						consts[k] = append(consts[k], tm.Disj...)
					case !tm.IsVar():
						consts[k] = append(consts[k], tm.Val)
					}
				}
			}
		}
	}
	var script []wmChange
	for _, c := range prog.Classes {
		if len(c.Attrs) == 0 {
			continue
		}
		for i := 0; i < 12; i++ {
			vals := make([]symtab.Value, len(c.Attrs))
			for a, attr := range c.Attrs {
				pool := append(consts[c.Name+"^"+attr], symtab.Sym("zz"), symtab.Nil)
				vals[a] = pool[(i*(a+1)+a)%len(pool)]
			}
			script = append(script, wmChange{class: c.Name, vals: vals})
		}
	}
	return script
}
