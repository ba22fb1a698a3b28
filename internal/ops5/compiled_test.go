package ops5

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"spampsm/internal/rete"
	"spampsm/internal/symtab"
	"spampsm/internal/wm"
)

// Differential oracle for the compile-once template path: engines
// instantiated from one shared CompiledProgram must be byte-identical —
// firing trace, final working memory, match counters and run
// statistics — to an engine that recompiles the program from scratch,
// for both matchers: the Program's cached (dispatching) template, and a
// swept template compiled once (compileVariant keeps the two axes
// apart; WithReference is both at once).

// runDiffOn builds one engine with newEngine and the given options,
// seeds the differential working memory, runs it to quiescence, settles
// it (a no-op unless an option made it borrow a scratch) and returns the
// observables: the working memory as it stood before the settle — a
// borrowing engine gives it back — the rest read after it, so they are
// also what a settled engine still answers.
func runDiffOn(t *testing.T, newEngine func(...Option) (*Engine, error), opts ...Option) (string, string, rete.Counters, RunStats) {
	t.Helper()
	var trace bytes.Buffer
	opts = append(opts, WithTrace(&trace))
	e, err := newEngine(opts...)
	if err != nil {
		t.Fatal(err)
	}
	seedDiffWM(t, e)
	if _, err := e.Run(5000); err != nil {
		t.Fatal(err)
	}
	var dump bytes.Buffer
	e.DumpWM(&dump)
	e.Settle()
	return trace.String(), dump.String(), e.MatchCounters(), e.Stats()
}

// fresh returns an engine builder that compiles prog anew for every
// engine it builds, swept or not.
func fresh(t *testing.T, prog *Program, swept bool) func(...Option) (*Engine, error) {
	return func(opts ...Option) (*Engine, error) {
		cp, err := compileVariant(prog, swept, false)
		if err != nil {
			t.Fatal(err)
		}
		return cp.NewEngine(opts...)
	}
}

func TestEngineDifferentialTemplateVsFreshCompile(t *testing.T) {
	// One worker's arena, lent in turn to every borrowing engine below:
	// whatever program and matcher drew from it last.
	scratch := &Scratch{}
	for _, tc := range diffPrograms {
		for _, swept := range []bool{false, true} {
			name := tc.name + "/indexed"
			if swept {
				name = tc.name + "/naive"
			}
			t.Run(name, func(t *testing.T) {
				prog, err := Parse(tc.src)
				if err != nil {
					t.Fatal(err)
				}
				template := func(opts ...Option) (*Engine, error) { return NewEngine(prog, opts...) }
				if swept {
					cp, err := compileVariant(prog, true, false)
					if err != nil {
						t.Fatal(err)
					}
					template = cp.NewEngine
				}
				fTrace, fWM, fCtr, fStats := runDiffOn(t, fresh(t, prog, swept))
				if fTrace == "" {
					t.Fatal("trace empty: program did not fire")
				}
				// Successive instantiations of the same shared template must
				// all match the fresh compile: the second proves the first
				// left no state behind in the shared template; the third and
				// fourth borrow, settle and recycle the shared arena.
				for inst := 0; inst < 4; inst++ {
					var extra []Option
					if inst >= 2 {
						extra = append(extra, WithScratch(scratch))
					}
					cTrace, cWM, cCtr, cStats := runDiffOn(t, template, extra...)
					if cTrace != fTrace {
						t.Errorf("instance %d: firing traces differ:\ntemplate:\n%s\nfresh:\n%s", inst, cTrace, fTrace)
					}
					if cWM != fWM {
						t.Errorf("instance %d: final working memories differ:\ntemplate:\n%s\nfresh:\n%s", inst, cWM, fWM)
					}
					if cCtr != fCtr {
						t.Errorf("instance %d: match counters differ:\ntemplate: %+v\nfresh:    %+v", inst, cCtr, fCtr)
					}
					if cStats != fStats {
						t.Errorf("instance %d: run stats differ:\ntemplate: %+v\nfresh:    %+v", inst, cStats, fStats)
					}
				}
			})
		}
	}
}

// TestCompiledProgramVariantCache checks that NewEngine reuses one
// compiled variant per capture setting instead of recompiling, and that
// WithReference compiles privately, every time.
func TestCompiledProgramVariantCache(t *testing.T) {
	prog, err := Parse(diffPrograms[0].src)
	if err != nil {
		t.Fatal(err)
	}
	combos := [][]Option{nil, {WithCapture()}}
	for _, opts := range combos {
		a := mustNewEngine(t, prog, opts...)
		b := mustNewEngine(t, prog, opts...)
		if variantOf(a) != variantOf(b) {
			t.Errorf("opts %v: two engines did not share one template", opts)
		}
		refOpts := append([]Option{WithReference()}, opts...)
		ref1, ref2 := mustNewEngine(t, prog, refOpts...), mustNewEngine(t, prog, refOpts...)
		if variantOf(ref1) == variantOf(a) || variantOf(ref1) == variantOf(ref2) {
			t.Errorf("opts %v: a reference engine reused a template", opts)
		}
	}
	if len(prog.variants) != len(combos) {
		t.Errorf("program caches %d variants, want %d", len(prog.variants), len(combos))
	}
	if variantOf(mustNewEngine(t, prog)) == variantOf(mustNewEngine(t, prog, WithCapture())) {
		t.Error("capturing and non-capturing engines share one template; keys must separate them")
	}
}

// variantOf identifies the compiled variant an engine instantiates by
// its first production's compiled form, which each compile makes anew.
func variantOf(e *Engine) *compiledProd { return e.compiled[e.prog.Productions[0].Name] }

func mustNewEngine(t *testing.T, prog *Program, opts ...Option) *Engine {
	t.Helper()
	e, err := NewEngine(prog, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestConcurrentEngineInstantiation hammers one shared Program from
// many goroutines — capturing and not, so both cached variants are
// instantiated concurrently, beside reference engines compiling
// privately — and checks every run reproduces the single-threaded
// production run byte for byte. Run under -race this also proves
// templates are data-race-free across instances.
func TestConcurrentEngineInstantiation(t *testing.T) {
	prog, err := Parse(diffPrograms[0].src)
	if err != nil {
		t.Fatal(err)
	}
	type obs struct {
		trace, wm string
		ctr       rete.Counters
		stats     RunStats
	}
	trace, wm, ctr, stats := runDiffOn(t, func(opts ...Option) (*Engine, error) { return NewEngine(prog, opts...) })
	want := obs{trace, wm, ctr, stats}
	variants := [][]Option{nil, {WithCapture()}, {WithReference()}}

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		opts := variants[g%len(variants)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			var trace bytes.Buffer
			e, err := NewEngine(prog, append(opts, WithTrace(&trace))...)
			if err != nil {
				errs <- err
				return
			}
			colors := []string{"blue", "red", "blue", "green", "blue", "red"}
			for i := 0; i < 6; i++ {
				if _, err := e.Assert("node", map[string]symtab.Value{
					"id": symtab.Int(int64(i)), "color": symtab.Sym(colors[i]),
				}); err != nil {
					errs <- err
					return
				}
			}
			for _, l := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {1, 4}, {2, 0}} {
				if _, err := e.Assert("link", map[string]symtab.Value{
					"from": symtab.Int(int64(l[0])), "to": symtab.Int(int64(l[1])),
				}); err != nil {
					errs <- err
					return
				}
			}
			if _, err := e.Run(5000); err != nil {
				errs <- err
				return
			}
			var dump bytes.Buffer
			e.DumpWM(&dump)
			if trace.String() != want.trace || dump.String() != want.wm ||
				e.MatchCounters() != want.ctr || e.Stats() != want.stats {
				errs <- fmt.Errorf("options %d: concurrent run diverged from the single-threaded one", g%len(variants))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSettledEngineReadableAndRefusesToRun: after Settle a borrowing
// engine still answers Stats, Log, MatchCounters and its memory's peaks
// as before but serves no WMEs — its working memory went back to the
// worker with its match state — and refuses, with ErrSettled, not a
// panic and not by quietly matching on recycled tokens, to assert or
// run. The rows a walk (EachWME) copies out before Settle — what a
// task's Read does on a pool worker — are the engine's rows, and stay
// so after a different task has borrowed, dirtied and settled the same
// scratch.
func TestSettledEngineReadableAndRefusesToRun(t *testing.T) {
	scratch := &Scratch{}
	build := func(src string) *Engine {
		t.Helper()
		prog, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(prog, WithScratch(scratch))
		if err != nil {
			t.Fatal(err)
		}
		seedDiffWM(t, e)
		if _, err := e.Run(5000); err != nil {
			t.Fatal(err)
		}
		return e
	}
	type view struct {
		stats    RunStats
		log      CostLog
		ctr      rete.Counters
		peakWMEs int
		peakB    float64
	}
	read := func(e *Engine) view {
		return view{stats: e.Stats(), log: *e.Log(), ctr: e.MatchCounters(),
			peakWMEs: e.Memory().PeakSize(), peakB: e.Memory().PeakBytes()}
	}
	rows := func(wmes []*wm.WME) (out []string) {
		for _, w := range wmes {
			out = append(out, fmt.Sprintf("%d %s", w.TimeTag, w))
		}
		return out
	}

	first := build(diffPrograms[0].src)
	before, paths := read(first), rows(first.WMEs("path"))
	if len(paths) == 0 || before.stats.Firings == 0 {
		t.Fatal("first task produced nothing; the test is vacuous")
	}
	var kept []*wm.WME
	first.EachWME("path", func(w *wm.WME) {
		kept = append(kept, &wm.WME{Class: w.Class, Vals: slices.Clone(w.Vals), TimeTag: w.TimeTag})
	})
	first.EachWME("no-such-class", func(w *wm.WME) { t.Errorf("walked a row of an undeclared class: %s", w) })
	if !reflect.DeepEqual(rows(kept), paths) {
		t.Fatalf("EachWME walked %v, want the engine's rows %v", rows(kept), paths)
	}
	first.Settle()
	if got := read(first); !reflect.DeepEqual(got, before) {
		t.Errorf("Settle changed what the engine reports:\nbefore %+v\nafter  %+v", before, got)
	}
	var dump bytes.Buffer
	first.DumpWM(&dump)
	if n := len(first.WMEs("path")); n != 0 || dump.Len() != 0 || first.Memory().Size() != 0 {
		t.Errorf("a settled borrowing engine still serves working memory: %d paths, %d live, dump %q", n, first.Memory().Size(), dump.String())
	}
	if first.ConflictSetSize() != 0 {
		t.Error("a settled engine still holds a conflict set")
	}
	refused := map[string]error{}
	_, refused["Assert"] = first.Assert("node", map[string]symtab.Value{"id": symtab.Int(9)})
	refused["AssertBatch"] = first.AssertBatch([]Seed{{Class: "node", Vals: make([]symtab.Value, 2)}})
	_, refused["Run"] = first.Run(0)
	for op, err := range refused {
		if !errors.Is(err, ErrSettled) {
			t.Errorf("%s on a settled engine: err %v, want ErrSettled", op, err)
		}
	}
	if got := read(first); !reflect.DeepEqual(got, before) {
		t.Error("a refused operation changed the settled engine")
	}

	// A different task on the same scratch, run and settled in turn: it
	// draws the very WME structs and vectors the first engine gave back.
	for i := 0; i < 2; i++ {
		second := build(diffPrograms[1].src)
		if second.Stats().Firings == 0 {
			t.Fatal("second task fired nothing")
		}
		second.Settle()
		if got := read(first); !reflect.DeepEqual(got, before) {
			t.Fatalf("a later borrower of the scratch disturbed the settled engine (round %d)", i)
		}
		if got := rows(kept); !reflect.DeepEqual(got, paths) {
			t.Fatalf("a later borrower of the scratch rewrote the rows copied out before Settle (round %d):\n%v\nwant %v", i, got, paths)
		}
	}

	// An engine that owns its memory keeps it: Settle does nothing.
	prog, err := Parse(diffPrograms[0].src)
	if err != nil {
		t.Fatal(err)
	}
	owner := mustNewEngine(t, prog)
	seedDiffWM(t, owner)
	if _, err := owner.Run(5000); err != nil {
		t.Fatal(err)
	}
	owner.Settle()
	if got := rows(owner.WMEs("path")); !reflect.DeepEqual(got, paths) {
		t.Errorf("an owning engine's working memory after Settle: %v, want %v", got, paths)
	}
}

// TestScratchCostLogExactAcrossRuns: a borrowing engine's cycles
// accumulate in a buffer its worker's scratch parks between engines, and
// each Run copies them into the cost log exact-sized when it returns. A
// log read after a first Run keeps what it read when a second Run
// appends, the two runs log what one run to quiescence logs, and no
// later engine on the same scratch — which reuses the buffer — changes
// either.
func TestScratchCostLogExactAcrossRuns(t *testing.T) {
	prog, err := Parse(diffPrograms[0].src)
	if err != nil {
		t.Fatal(err)
	}
	scratch := &Scratch{}
	build := func() *Engine {
		t.Helper()
		e, err := NewEngine(prog, WithScratch(scratch))
		if err != nil {
			t.Fatal(err)
		}
		seedDiffWM(t, e)
		return e
	}
	exact := func(what string, e *Engine, firings int) {
		t.Helper()
		if c := e.Log().Cycles; len(c) != firings || cap(c) != len(c) {
			t.Errorf("%s: %d cycles logged (capacity %d), want exactly %d", what, len(c), cap(c), firings)
		}
	}

	whole := build()
	if _, err := whole.Run(0); err != nil {
		t.Fatal(err)
	}
	n := whole.Stats().Firings
	if n < 4 {
		t.Fatalf("%d firings: the test is vacuous", n)
	}
	exact("one run", whole, n)
	wholeLog := *whole.Log()
	wholeLog.Cycles = slices.Clone(wholeLog.Cycles)
	whole.Settle()

	twice := build()
	if _, err := twice.Run(n / 2); err != nil {
		t.Fatal(err)
	}
	exact("first of two runs", twice, n/2)
	first := twice.Log().Cycles
	firstCopy := slices.Clone(first)
	if _, err := twice.Run(0); err != nil {
		t.Fatal(err)
	}
	exact("second of two runs", twice, n)
	if !reflect.DeepEqual(first, firstCopy) {
		t.Error("the second Run rewrote the cycles the first one logged")
	}
	if !reflect.DeepEqual(*twice.Log(), wholeLog) {
		t.Errorf("two runs logged %+v, one run %+v", *twice.Log(), wholeLog)
	}
	twiceLog := *twice.Log()
	twiceLog.Cycles = slices.Clone(twiceLog.Cycles)
	twice.Settle()

	for i := 0; i < 2; i++ {
		later := build()
		if _, err := later.Run(0); err != nil {
			t.Fatal(err)
		}
		later.Settle()
	}
	if !reflect.DeepEqual(*twice.Log(), twiceLog) || !reflect.DeepEqual(first, firstCopy) {
		t.Error("a later engine on the scratch changed a settled engine's cost log")
	}
}
