package ops5

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"spampsm/internal/symtab"
)

func mustEngine(t *testing.T, src string, opts ...Option) *Engine {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(prog, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestCounterLoop(t *testing.T) {
	e := mustEngine(t, `
(literalize count n limit)
(p step
   (count ^n <n> ^limit <l>)
   (count ^n < <l>)
  -->
   (modify 1 ^n (compute <n> + 1)))
`)
	// Simpler: single WME counting to its limit.
	_ = e
	e2 := mustEngine(t, `
(literalize count n limit)
(p step
   (count ^n <n> ^limit > <n>)
  -->
   (modify 1 ^n (compute <n> + 1)))
`)
	if _, err := e2.Assert("count", map[string]symtab.Value{
		"n": symtab.Int(0), "limit": symtab.Int(10),
	}); err != nil {
		t.Fatal(err)
	}
	fired, err := e2.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if fired != 10 {
		t.Errorf("firings = %d, want 10", fired)
	}
	ws := e2.WMEs("count")
	if len(ws) != 1 || !ws[0].Get("n").Equal(symtab.Int(10)) {
		t.Errorf("final count = %v", ws)
	}
	st := e2.Stats()
	if st.Firings != 10 || st.Cycles != 11 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRefraction(t *testing.T) {
	// Without refraction this would loop forever: the rule does not
	// change working memory.
	e := mustEngine(t, `
(literalize fact v)
(p note (fact ^v <v>) --> (bind <x> <v>))
`)
	e.Assert("fact", map[string]symtab.Value{"v": symtab.Int(1)})
	e.Assert("fact", map[string]symtab.Value{"v": symtab.Int(2)})
	fired, err := e.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Errorf("firings = %d, want 2 (refraction)", fired)
	}
}

func TestHalt(t *testing.T) {
	e := mustEngine(t, `
(literalize fact v)
(p stop (fact) --> (halt) (make fact ^v never))
`)
	e.Assert("fact", map[string]symtab.Value{"v": symtab.Int(1)})
	fired, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if fired != 1 || !e.Halted() {
		t.Errorf("fired=%d halted=%v", fired, e.Halted())
	}
	// Actions after halt in the same RHS are skipped.
	if n := len(e.WMEs("fact")); n != 1 {
		t.Errorf("fact count = %d, want 1 (make after halt skipped)", n)
	}
}

func TestQuiescence(t *testing.T) {
	e := mustEngine(t, `
(literalize fact v)
(p fire (fact ^v go) --> (remove 1))
`)
	e.Assert("fact", map[string]symtab.Value{"v": symtab.Sym("stay")})
	fired, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Errorf("fired = %d, want 0 (no match)", fired)
	}
}

func TestLEXRecency(t *testing.T) {
	// Two rules match different WMEs; the more recent WME wins under LEX.
	var out bytes.Buffer
	e := mustEngine(t, `
(literalize a v)
(literalize b v)
(p on-a (a ^v <v>) --> (write a-fired) (remove 1))
(p on-b (b ^v <v>) --> (write b-fired) (remove 1))
`, WithOutput(&out))
	e.Assert("a", map[string]symtab.Value{"v": symtab.Int(1)}) // timetag 1
	e.Assert("b", map[string]symtab.Value{"v": symtab.Int(2)}) // timetag 2
	if _, err := e.Run(1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "b-fired") {
		t.Errorf("LEX should fire on the more recent WME; output = %q", out.String())
	}
}

func TestLEXSpecificity(t *testing.T) {
	// Same WME matched by two rules: the more specific rule wins.
	var out bytes.Buffer
	e := mustEngine(t, `
(literalize a v kind)
(p general (a ^v <v>) --> (write general) (remove 1))
(p specific (a ^v <v> ^kind special) --> (write specific) (remove 1))
`, WithOutput(&out))
	e.Assert("a", map[string]symtab.Value{"v": symtab.Int(1), "kind": symtab.Sym("special")})
	if _, err := e.Run(1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "specific") {
		t.Errorf("specificity should break the tie; output = %q", out.String())
	}
}

func TestMEAFirstCE(t *testing.T) {
	// Under MEA the first CE's recency dominates; under LEX the overall
	// recency would pick the other instantiation.
	var out bytes.Buffer
	e := mustEngine(t, `
(literalize ctx phase)
(literalize item v)
(strategy mea)
(p old-ctx (ctx ^phase one) (item ^v <v>) --> (write one) (remove 2))
(p new-ctx (ctx ^phase two) (item ^v <v>) --> (write two) (remove 2))
`, WithOutput(&out))
	e.Assert("ctx", map[string]symtab.Value{"phase": symtab.Sym("one")}) // tag 1
	e.Assert("ctx", map[string]symtab.Value{"phase": symtab.Sym("two")}) // tag 2
	e.Assert("item", map[string]symtab.Value{"v": symtab.Int(9)})        // tag 3
	if _, err := e.Run(1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "two") {
		t.Errorf("MEA should prefer the rule whose first CE matches the newer context; output = %q", out.String())
	}
}

func TestModifySemantics(t *testing.T) {
	e := mustEngine(t, `
(literalize frag id status score)
(p promote { <f> (frag ^status candidate) } --> (modify <f> ^status confirmed))
`)
	w, _ := e.Assert("frag", map[string]symtab.Value{
		"id": symtab.Int(7), "status": symtab.Sym("candidate"), "score": symtab.Float(0.8),
	})
	oldTag := w.TimeTag
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	ws := e.WMEs("frag")
	if len(ws) != 1 {
		t.Fatalf("frag count = %d", len(ws))
	}
	nw := ws[0]
	if !nw.Get("status").Equal(symtab.Sym("confirmed")) {
		t.Errorf("status = %v", nw.Get("status"))
	}
	// Unmentioned attributes preserved; timetag is fresh.
	if !nw.Get("id").Equal(symtab.Int(7)) || !nw.Get("score").Equal(symtab.Float(0.8)) {
		t.Errorf("modify dropped attributes: %v", nw)
	}
	if nw.TimeTag == oldTag {
		t.Error("modify must assign a new timetag")
	}
}

func TestNegationDrivenRule(t *testing.T) {
	if _, err := Parse("(litera1ize never x)"); err == nil {
		t.Fatal("typo class decl should fail")
	}
	e2 := mustEngine(t, `
(literalize task id)
(literalize result count)
(p finish
   (result ^count <> done)
 - (task)
  -->
   (modify 1 ^count done))
(p consume
   (result)
   { <t> (task ^id <i>) }
  -->
   (remove <t>))
`)
	e2.Assert("result", map[string]symtab.Value{"count": symtab.Int(0)})
	e2.Assert("task", map[string]symtab.Value{"id": symtab.Int(1)})
	e2.Assert("task", map[string]symtab.Value{"id": symtab.Int(2)})
	if _, err := e2.Run(0); err != nil {
		t.Fatal(err)
	}
	ws := e2.WMEs("result")
	if len(ws) != 1 || !ws[0].Get("count").Equal(symtab.Sym("done")) {
		t.Errorf("finish should fire after tasks consumed: %v", ws)
	}
	if len(e2.WMEs("task")) != 0 {
		t.Error("tasks should be consumed")
	}
}

func TestExternalFunctions(t *testing.T) {
	e := mustEngine(t, `
(literalize pair a b sum)
(external add-up log-it)
(p sum-it
   (pair ^a <a> ^b <b> ^sum nil-yet)
  -->
   (call log-it <a> <b>)
   (modify 1 ^sum (add-up <a> <b>)))
`)
	var logged []symtab.Value
	e.Register("log-it", func(args []symtab.Value) (symtab.Value, float64, error) {
		logged = append(logged, args...)
		return symtab.Nil, 100, nil
	})
	e.Register("add-up", func(args []symtab.Value) (symtab.Value, float64, error) {
		return symtab.Int(args[0].IntVal() + args[1].IntVal()), 500, nil
	})
	e.Assert("pair", map[string]symtab.Value{
		"a": symtab.Int(3), "b": symtab.Int(4), "sum": symtab.Sym("nil-yet"),
	})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	ws := e.WMEs("pair")
	if !ws[0].Get("sum").Equal(symtab.Int(7)) {
		t.Errorf("sum = %v", ws[0].Get("sum"))
	}
	if len(logged) != 2 {
		t.Errorf("logged = %v", logged)
	}
	// External cost must appear in act cost.
	if e.Stats().ActInstr < 600 {
		t.Errorf("act cost %v should include external costs", e.Stats().ActInstr)
	}
}

func TestMissingExternal(t *testing.T) {
	e := mustEngine(t, `
(literalize a x)
(external mystery)
(p r (a) --> (call mystery))
`)
	e.Assert("a", nil)
	if _, err := e.Run(0); err == nil || !strings.Contains(err.Error(), "mystery") {
		t.Errorf("expected missing-external error, got %v", err)
	}
}

func TestExternalFailureMidRun(t *testing.T) {
	// An external that fails partway through a run must abort the run
	// with a descriptive error, leaving earlier work committed.
	e := mustEngine(t, `
(literalize item id score)
(external score-it)
(p score { <i> (item ^score nil-yet ^id <n>) } -->
   (modify <i> ^score (score-it <n>)))
`)
	calls := 0
	e.Register("score-it", func(args []symtab.Value) (symtab.Value, float64, error) {
		calls++
		if calls == 3 {
			return symtab.Nil, 0, fmt.Errorf("sensor offline")
		}
		return symtab.Int(args[0].IntVal() * 2), 10, nil
	})
	for i := 1; i <= 5; i++ {
		e.Assert("item", map[string]symtab.Value{
			"id": symtab.Int(int64(i)), "score": symtab.Sym("nil-yet"),
		})
	}
	fired, err := e.Run(0)
	if err == nil || !strings.Contains(err.Error(), "sensor offline") {
		t.Fatalf("want external error, got %v", err)
	}
	if fired != 2 {
		t.Errorf("fired = %d before the failure, want 2", fired)
	}
	// Two items scored, the rest untouched.
	scored := 0
	for _, w := range e.WMEs("item") {
		if w.Get("score").Kind() == symtab.KindInt {
			scored++
		}
	}
	if scored != 2 {
		t.Errorf("scored = %d, want 2", scored)
	}
}

func TestWriteOutput(t *testing.T) {
	var out bytes.Buffer
	e := mustEngine(t, `
(literalize msg text n)
(p say (msg ^text <t> ^n <n>) --> (write <t> (crlf) value <n>) (remove 1))
`, WithOutput(&out))
	e.Assert("msg", map[string]symtab.Value{"text": symtab.Sym("hello"), "n": symtab.Int(42)})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "hello") || !strings.Contains(got, "42") || !strings.Contains(got, "\n") {
		t.Errorf("write output = %q", got)
	}
}

func TestCostLogShape(t *testing.T) {
	e := mustEngine(t, `
(literalize count n limit)
(p step (count ^n <n> ^limit > <n>) --> (modify 1 ^n (compute <n> + 1)))
`, WithCapture())
	e.Assert("count", map[string]symtab.Value{"n": symtab.Int(0), "limit": symtab.Int(5)})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	log := e.Log()
	if len(log.Cycles) != 5 {
		t.Fatalf("cycles = %d, want 5", len(log.Cycles))
	}
	if log.Init <= 0 {
		t.Error("init cost should be positive")
	}
	for i, c := range log.Cycles {
		if c.Match <= 0 || c.Act <= 0 {
			t.Errorf("cycle %d costs: %+v", i, c)
		}
		if len(log.Roots(i)) == 0 {
			t.Errorf("cycle %d: no captured match roots", i)
		}
		var rootCost float64
		for _, r := range log.Roots(i) {
			rootCost += r.TotalCost()
		}
		if rootCost <= 0 || rootCost > c.Match+1e-9 {
			t.Errorf("cycle %d: root cost %v vs match %v", i, rootCost, c.Match)
		}
	}
	if log.TotalInstr() <= 0 || log.MatchInstr() <= 0 {
		t.Error("log totals should be positive")
	}
	st := e.Stats()
	if st.MatchFraction() <= 0 || st.MatchFraction() >= 1 {
		t.Errorf("match fraction = %v", st.MatchFraction())
	}
}

func TestRunLimit(t *testing.T) {
	e := mustEngine(t, `
(literalize count n limit)
(p step (count ^n <n> ^limit > <n>) --> (modify 1 ^n (compute <n> + 1)))
`)
	e.Assert("count", map[string]symtab.Value{"n": symtab.Int(0), "limit": symtab.Int(1000)})
	fired, err := e.Run(7)
	if err != nil {
		t.Fatal(err)
	}
	if fired != 7 {
		t.Errorf("fired = %d, want 7", fired)
	}
	// Resume.
	fired, err = e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if fired != 993 {
		t.Errorf("resumed fired = %d, want 993", fired)
	}
}

func TestArithmeticSemantics(t *testing.T) {
	e := mustEngine(t, `
(literalize r a b iq im fsum)
(p go (r ^a <a> ^b <b>)
  -->
  (modify 1 ^iq (compute <a> // <b>) ^im (compute <a> \\ <b>) ^fsum (compute <a> + 0.5)))
`)
	e.Assert("r", map[string]symtab.Value{"a": symtab.Int(17), "b": symtab.Int(5)})
	if _, err := e.Run(1); err != nil {
		t.Fatal(err)
	}
	w := e.WMEs("r")[0]
	if !w.Get("iq").Equal(symtab.Int(3)) {
		t.Errorf("integer quotient = %v", w.Get("iq"))
	}
	if !w.Get("im").Equal(symtab.Int(2)) {
		t.Errorf("integer modulus = %v", w.Get("im"))
	}
	if !w.Get("fsum").Equal(symtab.Float(17.5)) {
		t.Errorf("float sum = %v", w.Get("fsum"))
	}
}

func TestDivisionByZeroError(t *testing.T) {
	e := mustEngine(t, `
(literalize r a)
(p go (r ^a <a>) --> (modify 1 ^a (compute 1 // 0)))
`)
	e.Assert("r", map[string]symtab.Value{"a": symtab.Int(1)})
	if _, err := e.Run(0); err == nil {
		t.Error("division by zero should error")
	}
}

func TestAssertDuringRunRejected(t *testing.T) {
	e := mustEngine(t, `
(literalize a x)
(p r (a) --> (halt))
`)
	if _, err := e.Assert("a", nil); err != nil {
		t.Fatal(err)
	}
	// Assert from inside an external would be a bug; simulate by flag.
	// (Run itself is synchronous, so call after Run finishes is fine.)
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Assert("a", nil); err != nil {
		t.Errorf("assert after run should succeed: %v", err)
	}
}

func TestDisjunctionMatching(t *testing.T) {
	e := mustEngine(t, `
(literalize region kind)
(p linear (region ^kind << runway taxiway road >>) --> (remove 1))
`)
	e.Assert("region", map[string]symtab.Value{"kind": symtab.Sym("runway")})
	e.Assert("region", map[string]symtab.Value{"kind": symtab.Sym("grass")})
	e.Assert("region", map[string]symtab.Value{"kind": symtab.Sym("road")})
	fired, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Errorf("fired = %d, want 2", fired)
	}
	if left := e.WMEs("region"); len(left) != 1 || !left[0].Get("kind").Equal(symtab.Sym("grass")) {
		t.Errorf("remaining = %v", left)
	}
}

func TestConjunctionRangeMatching(t *testing.T) {
	e := mustEngine(t, `
(literalize m v)
(p mid (m ^v { > 10 < 20 }) --> (remove 1))
`)
	e.Assert("m", map[string]symtab.Value{"v": symtab.Int(5)})
	e.Assert("m", map[string]symtab.Value{"v": symtab.Int(15)})
	e.Assert("m", map[string]symtab.Value{"v": symtab.Int(25)})
	fired, _ := e.Run(0)
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if len(e.WMEs("m")) != 2 {
		t.Errorf("remaining = %d", len(e.WMEs("m")))
	}
}

func TestFibonacciProgram(t *testing.T) {
	// A multi-rule program computing Fibonacci numbers through WM.
	e := mustEngine(t, `
(literalize fib i val prev limit)
(p extend
   (fib ^i <i> ^val <v> ^prev <p> ^limit > <i>)
  -->
   (modify 1 ^i (compute <i> + 1) ^val (compute <v> + <p>) ^prev <v>))
`)
	e.Assert("fib", map[string]symtab.Value{
		"i": symtab.Int(2), "val": symtab.Int(1), "prev": symtab.Int(1), "limit": symtab.Int(10),
	})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	w := e.WMEs("fib")[0]
	if !w.Get("val").Equal(symtab.Int(55)) {
		t.Errorf("fib(10) = %v, want 55", w.Get("val"))
	}
}

func TestSameTypePredicate(t *testing.T) {
	e := mustEngine(t, `
(literalize a x y)
(p same (a ^x <v> ^y <=> <v>) --> (remove 1))
`)
	e.Assert("a", map[string]symtab.Value{"x": symtab.Int(1), "y": symtab.Int(99)})
	e.Assert("a", map[string]symtab.Value{"x": symtab.Int(1), "y": symtab.Sym("one")})
	fired, _ := e.Run(0)
	if fired != 1 {
		t.Errorf("fired = %d, want 1 (only the int/int pair)", fired)
	}
}

// TestMakeActionAllocations is the allocation guard for the RHS: a make
// on a warm engine builds no attribute map and no activation label. It
// allocates the WME and its value vector — and, when the engine owns
// its memory rather than borrowing a worker's arena, the four match
// records (per-WME state, list entry, membership and its bucket slots)
// of the one alpha memory that accepts the WME.
func TestMakeActionAllocations(t *testing.T) {
	prog, err := Parse(`
(literalize tick n)
(literalize out n)
(literalize gate g)
(p consume (gate ^g <g>) (out ^n <g>) --> (halt))
(p gen (tick ^n <n>) --> (make out ^n <n>))
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts []Option
		max  float64
	}{
		{"borrowing", []Option{WithScratch(&Scratch{})}, 2},
		{"owning", nil, 6},
	} {
		e, err := NewEngine(prog, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Assert("tick", map[string]symtab.Value{"n": symtab.Int(7)}); err != nil {
			t.Fatal(err)
		}
		inst := e.cs.Resolve(e.strategy)
		if inst == nil || inst.cp.prod.Name != "gen" {
			t.Fatalf("%s: no gen instantiation to fire", tc.name)
		}
		e.env.inst = inst
		act, slots := inst.cp.prod.RHS[0], inst.cp.rhs[0]
		before := e.MatchCounters().Activations
		allocs := testing.AllocsPerRun(1000, func() {
			if err := e.execute(act, slots, &e.env); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.max {
			t.Errorf("%s engine: make allocated %v objects, want at most %v", tc.name, allocs, tc.max)
		}
		if e.MatchCounters().Activations == before || len(e.WMEs("out")) < 1000 {
			t.Errorf("%s engine: the guarded make did not reach the match network", tc.name)
		}
	}
}
