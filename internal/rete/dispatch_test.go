package rete

import (
	"fmt"
	"sync"
	"testing"

	"spampsm/internal/symtab"
	"spampsm/internal/wm"
)

// eqPattern is a one-attribute equality pattern over class, keyed (as
// data) on the values it accepts.
func eqPattern(class string, attr int, vals ...symtab.Value) Pattern {
	return Pattern{
		Class:     class,
		Signature: fmt.Sprintf("%s^%d=%v", class, attr, vals),
		Filter: func(w *wm.WME) bool {
			for _, v := range vals {
				if w.GetAt(attr).Equal(v) {
					return true
				}
			}
			return false
		},
		FilterCost: CostAlphaFilterTerm,
		Consts:     map[int][]symtab.Value{attr: vals},
	}
}

// TestDispatchTableShape pins how Freeze builds a class's dispatch: the
// attribute keying the most memories wins, ties go to the lowest slot,
// memories with no equality constant on it are the residual, a
// candidate list is the keyed memories merged with the residual in
// class memory order, values that are Equal share one key, and neither
// a class without constants nor a template compiled without Consts
// gets a dispatch.
func TestDispatchTableShape(t *testing.T) {
	sym, num := symtab.Sym, symtab.Int
	build := func(dispatched bool) *Template {
		tmpl := NewTemplate()
		add := func(name string, pat Pattern) {
			t.Helper()
			if _, err := tmpl.AddProduction(name, patterns([]Pattern{pat}, dispatched), nil); err != nil {
				t.Fatal(err)
			}
		}
		// k: four memories keyed on slot 1, one of them on slot 0 as well,
		// and two residual ones (0 and 3 in class order).
		add("k0", Pattern{Class: "k", Signature: "k|*", FilterCost: CostAlphaFilterTerm})
		add("k1", eqPattern("k", 1, sym("red")))
		red0 := eqPattern("k", 1, sym("red"))
		red0.Signature += "+0"
		red0.Consts[0] = []symtab.Value{num(7)}
		add("k2", red0)
		add("k3", Pattern{Class: "k", Signature: "k|ne", FilterCost: CostAlphaFilterTerm,
			Filter: func(w *wm.WME) bool { return !w.GetAt(1).Equal(sym("red")) }})
		add("k4", eqPattern("k", 1, num(55), symtab.Float(55), symtab.Float(0)))
		add("k5", eqPattern("k", 1, symtab.Float(-0.0), sym("blue")))
		// tie: one memory a slot, so slot 0 wins.
		add("t0", eqPattern("tie", 2, num(1)))
		add("t1", eqPattern("tie", 0, num(1)))
		// free: no constants at all.
		add("f0", Pattern{Class: "free", Signature: "free|*", FilterCost: CostAlphaFilterTerm})
		tmpl.Freeze()
		return tmpl
	}

	tmpl := build(true)
	k := tmpl.byClass["k"]
	d := k.dispatch
	if d == nil || d.attr != 1 {
		t.Fatalf("class k dispatches on %+v, want slot 1", d)
	}
	names := func(mems []*alphaMem) string {
		s := ""
		for _, am := range mems {
			for i, m := range k.mems {
				if m == am {
					s += fmt.Sprint(i)
				}
			}
		}
		return s
	}
	if got := names(d.residual); got != "03" {
		t.Errorf("residual is memories %s, want 03", got)
	}
	for _, c := range []struct {
		v    symtab.Value
		want string
	}{
		{sym("red"), "0123"}, {num(55), "034"}, {symtab.Float(55), "034"},
		{num(0), "0345"}, {symtab.Float(-0.0), "0345"}, {sym("blue"), "035"},
	} {
		if got := names(d.byKey[keyOf(c.v)]); got != c.want {
			t.Errorf("a WME with ^1 %v reaches memories %s, want %s", c.v, got, c.want)
		}
	}
	if _, ok := d.byKey[keyOf(sym("green"))]; ok {
		t.Error("a value no memory is keyed on has a candidate list of its own")
	}
	if want := float64(6 * (CostAlphaScan + CostAlphaFilterTerm)); d.sweepCost != want {
		t.Errorf("sweep cost %g, want %g", d.sweepCost, want)
	}
	if tie := tmpl.byClass["tie"].dispatch; tie == nil || tie.attr != 0 {
		t.Errorf("a tie between slots 2 and 0 dispatches on %+v, want slot 0", tie)
	}
	if tmpl.byClass["free"].dispatch != nil {
		t.Error("a class with no equality constant has a dispatch")
	}
	for class, cn := range build(false).byClass {
		if cn.dispatch != nil {
			t.Errorf("the template compiled without Consts dispatches class %s", class)
		}
	}
}

// TestDifferentialDispatchedVsSweptScripts replays the package's
// generated scripts with capture off — the production setting — on a
// template whose Add dispatches and on one compiled without Consts,
// whose Add sweeps: same conflict-set events in the same order, same
// Counters after every step. (TestDifferentialIndexedVsNaive is the
// same comparison capturing.) The generated rule sets of
// internal/ops5's dispatch oracle cover the constant-test forms.
func TestDifferentialDispatchedVsSweptScripts(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		s := genScript(seed)
		recI, recN := &seqRecorder{}, &seqRecorder{}
		dispatched := s.run(t, s.template(t, true).NewNetwork(recI), recI, false)
		swept := s.run(t, s.template(t, false).NewNetwork(recN), recN, false)
		diffRunsEqual(t, seed, swept, dispatched, "swept", "dispatched")
	}
}

// TestDifferentialCaptureOffVsOn replays the generated scripts on one
// template, once with capture off and once with capture on: same
// conflict-set events in the same order, same Counters after every
// step. A network that is not capturing charges a join or negative
// activation that meets an empty memory without making it, where a
// capturing one makes and records every activation; this is the oracle
// for that skipped call.
func TestDifferentialCaptureOffVsOn(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		s := genScript(seed)
		tmpl := s.template(t, true)
		recOff, recOn := &seqRecorder{}, &seqRecorder{}
		off := s.run(t, tmpl.NewNetwork(recOff), recOff, false)
		on := s.run(t, tmpl.NewNetwork(recOn), recOn, true)
		off.forests, on.forests = "", "" // only the capturing run has any
		diffRunsEqual(t, seed, off, on, "capture-off", "capture-on")
	}
}

// TestConcurrentBatchedSeedLoad loads many instances of one template
// with the same script from concurrent goroutines — a pool's workers
// building one phase's engines — and requires every instance to agree
// with a sequential swept reference. Run under -race this also proves
// that a frozen template's dispatch tables are only ever read.
func TestConcurrentBatchedSeedLoad(t *testing.T) {
	s := genScript(7)
	recN := &seqRecorder{}
	ref := s.run(t, s.template(t, false).NewNetwork(recN), recN, false)
	tmpl := s.template(t, true)
	tmpl.Freeze()

	const workers = 16
	runs := make([]*diffRun, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := &seqRecorder{}
			runs[i] = s.run(t, tmpl.NewNetwork(rec), rec, false)
		}(i)
	}
	wg.Wait()
	for i, run := range runs {
		diffRunsEqual(t, uint64(i), ref, run, "swept", "concurrent-dispatched")
	}
}

// checkShapedClass compiles one class the shape of SPAM's check: n
// single-pattern productions, each keyed on its own ^constraint value
// and testing ^result beside it. With joined, each production is
// instead a join of a focal CE, whose class is never asserted, with that
// check CE: the shape of SPAM's quiet lcc-audit productions, where a
// check WME right-activates a join whose beta memory is empty.
func checkShapedClass(b *testing.B, n int, dispatched, joined bool) (*Network, *wm.Memory) {
	b.Helper()
	cs := wm.NewClasses()
	if _, err := cs.Declare("check", "object", "constraint", "partner", "result"); err != nil {
		b.Fatal(err)
	}
	if _, err := cs.Declare("focal", "object"); err != nil {
		b.Fatal(err)
	}
	tmpl := NewTemplate()
	symT := symtab.Sym("t")
	for i := 0; i < n; i++ {
		c := symtab.Sym(fmt.Sprintf("c%d", i))
		pat := Pattern{
			Class:     "check",
			Signature: fmt.Sprintf("check|1=%s;3=t", c),
			Filter: func(w *wm.WME) bool {
				return w.GetAt(1).Equal(c) && w.GetAt(3).Equal(symT)
			},
			FilterCost: 2 * CostAlphaFilterTerm,
			Consts:     map[int][]symtab.Value{1: {c}, 3: {symT}},
		}
		pats := []Pattern{pat}
		if joined {
			pat.Tests = []JoinTest{{OwnAttr: 0, TokenLevel: 0, TokenAttr: 0}}
			pats = []Pattern{{Class: "focal", Signature: "focal|", FilterCost: CostAlphaFilterTerm}, pat}
		}
		if _, err := tmpl.AddProduction(fmt.Sprintf("p%d", i), patterns(pats, dispatched), nil); err != nil {
			b.Fatal(err)
		}
	}
	tmpl.BindClasses(cs)
	tmpl.Freeze()
	return tmpl.NewNetwork(benchAgenda{}), wm.NewMemory(cs)
}

// BenchmarkAddDispatch is the constant-test half of a working-memory
// change on its own: one Add and one Remove of a check WME that a
// single memory of the class accepts, swept (compiled without Consts)
// and dispatched, for a class of 60 memories — SPAM's check — and for
// one of 3, the size at which a sweep is three closure calls against
// the dispatch's one map lookup; dispatched on a capturing network,
// which still records one activation a memory but runs one filter
// (sweep-capture is the same sweep, capturing); and dispatched into a
// memory whose one successor is a join with an empty beta memory, the
// null activation a network that is not capturing charges without
// making it.
func BenchmarkAddDispatch(b *testing.B) {
	for _, n := range []int{60, 3} {
		for _, mode := range []struct {
			name                        string
			dispatched, capture, joined bool
		}{{"sweep", false, false, false}, {"dispatch", true, false, false}, {"sweep-capture", false, true, false},
			{"capture", true, true, false}, {"null", true, false, true}} {
			b.Run(fmt.Sprintf("mems=%d/%s", n, mode.name), func(b *testing.B) {
				net, mem := checkShapedClass(b, n, mode.dispatched, mode.joined)
				net.SetCapture(mode.capture)
				vals := []symtab.Value{symtab.Int(1), symtab.Sym(fmt.Sprintf("c%d", n/2)), symtab.Int(2), symtab.Sym("t")}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					net.StartBatch()
					w, err := mem.MakeVals("check", vals)
					if err != nil {
						b.Fatal(err)
					}
					net.Add(w)
					if err := mem.Remove(w); err != nil {
						b.Fatal(err)
					}
					net.Remove(w)
				}
			})
		}
	}
}
