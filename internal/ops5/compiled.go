package ops5

import (
	"fmt"
	"io"

	"spampsm/internal/rete"
	"spampsm/internal/wm"
)

// Compile-once engine instantiation. A CompiledProgram is the
// immutable compiled form of one Program variant: the class registry,
// the shared Rete template, and the lowered productions. Building one
// pays the full compilation (compileProduction + template
// construction) once; every engine created from it afterwards is
// O(nodes) pointer setup — fresh working memory, conflict set and
// per-instance network state over the shared topology.
//
// Variants are keyed on the one compile-time switch, activation
// capture. Each Program memoizes its variants, so the ~1k task builds
// of a full SPAM interpretation share one compile per variant in use.
// The reference engine (WithReference) is never cached: it compiles
// privately, with the patterns' Consts withheld from the network.

// CompiledProgram is an immutable compiled Program variant. It is
// safe for concurrent use: any number of goroutines may call NewEngine
// on the same CompiledProgram simultaneously.
type CompiledProgram struct {
	prog     *Program
	classes  *wm.Classes
	tmpl     *rete.Template
	compiled map[string]*compiledProd
	capture  bool
}

// Scratch is a task worker's match arena; see WithScratch and
// Engine.Settle. It is rete.Scratch re-exported at the engine layer so
// runtime code need not import internal/rete.
type Scratch = rete.Scratch

// compileVariant performs the full compilation of one Program variant,
// bypassing the cache. swept withholds every pattern's Consts from the
// template, so its networks sweep each class instead of dispatching on
// constant tests: the reference matcher.
func compileVariant(prog *Program, swept, capture bool) (*CompiledProgram, error) {
	classes := wm.NewClasses()
	for _, c := range prog.Classes {
		if _, err := classes.Declare(c.Name, c.Attrs...); err != nil {
			return nil, err
		}
	}
	tmpl := rete.NewTemplate()
	compiled := make(map[string]*compiledProd, len(prog.Productions))
	for _, p := range prog.Productions {
		cp, err := compileProduction(p, classes)
		if err != nil {
			return nil, err
		}
		if swept {
			for i := range cp.patterns {
				cp.patterns[i].Consts = nil
			}
		}
		pn, err := tmpl.AddProduction(p.Name, cp.patterns, cp)
		if err != nil {
			return nil, err
		}
		cp.pnode = pn
		compiled[p.Name] = cp
	}
	// Bind and freeze before the template escapes the compiler, so
	// concurrent first instantiations never race on the freeze flag.
	tmpl.BindClasses(classes)
	tmpl.Freeze()
	return &CompiledProgram{
		prog:     prog,
		classes:  classes,
		tmpl:     tmpl,
		compiled: compiled,
		capture:  capture,
	}, nil
}

// CompileProgram compiles a Program into a reusable CompiledProgram,
// bypassing the Program's variant cache (ops5.NewEngine consults the
// cache). Only the compile-time options matter here: WithCapture and
// WithReference select the variant; others are ignored.
func CompileProgram(prog *Program, opts ...Option) (*CompiledProgram, error) {
	probe := &Engine{}
	for _, opt := range opts {
		opt(probe)
	}
	return compileVariant(prog, probe.reference, probe.capture)
}

// compiledVariant returns the Program's memoized compiled variant,
// compiling it on first use. Concurrent callers serialize on the
// compile; all receive the same CompiledProgram.
func (pr *Program) compiledVariant(capture bool) (*CompiledProgram, error) {
	pr.compileMu.Lock()
	defer pr.compileMu.Unlock()
	if cp, ok := pr.variants[capture]; ok {
		return cp, nil
	}
	cp, err := compileVariant(pr, false, capture)
	if err != nil {
		return nil, err
	}
	if pr.variants == nil {
		pr.variants = map[bool]*CompiledProgram{}
	}
	pr.variants[capture] = cp
	return cp, nil
}

// NewEngine instantiates an engine over the compiled program in
// O(nodes): no production is recompiled. The variant is the compile's:
// WithCapture disagreeing with it is an error, and WithReference has no
// effect (CompileProgram takes it); use ops5.NewEngine to pick a
// variant by option.
func (cp *CompiledProgram) NewEngine(opts ...Option) (*Engine, error) {
	e := newEngineShell(cp.prog)
	e.capture = cp.capture
	for _, opt := range opts {
		opt(e)
	}
	return cp.finish(e)
}

// newEngineShell builds an Engine with everything that is per-engine
// and option-independent; finish wires in the compiled parts.
func newEngineShell(prog *Program) *Engine {
	return &Engine{
		prog:      prog,
		strategy:  ParseStrategy(prog.Strategy),
		externals: map[string]ExternalFn{},
		out:       io.Discard,
		log:       &CostLog{},
	}
}

// finish instantiates the compiled program into an option-applied
// engine shell.
func (cp *CompiledProgram) finish(e *Engine) (*Engine, error) {
	if e.capture != cp.capture {
		return nil, fmt.Errorf("ops5: engine requests capture=%v but program was compiled with capture=%v", e.capture, cp.capture)
	}
	e.classes = cp.classes
	e.compiled = cp.compiled
	if e.scratch != nil {
		e.cs, _ = e.scratch.TakeAgenda().(*conflictSet) // the last settled engine's, emptied
	}
	if e.cs == nil {
		e.cs = newConflictSet()
	}
	e.net = cp.tmpl.NewNetworkScratch(e.cs, e.scratch)
	e.mem = e.net.NewMemory(cp.classes)
	e.scratch = nil
	e.net.SetCapture(cp.capture)
	e.net.StartBatch()
	return e, nil
}

// Settle gives back everything the engine borrowed from its worker's
// scratch (WithScratch): the match network's tokens, entries and node
// state, the conflict set (emptied, for the next engine on the scratch
// to reuse), and the working memory — WME structs and the
// value vectors its rules made. Stats, Log, MatchCounters and the
// memory's peaks return what they returned before, but WMEs and Memory
// are empty — whoever reads final working memory copies the rows first
// (wm.Memory.CopyClasses) — and the engine is finished: Assert,
// AssertBatch and Run fail with ErrSettled. The worker calls it when a
// task's run ended normally; an engine that panicked or was
// interrupted is never settled, and its worker starts the next task on
// fresh slabs. On an engine built without a scratch Settle does
// nothing, and its working memory stays readable.
func (e *Engine) Settle() {
	s := e.net.Settle()
	if s == nil {
		return
	}
	e.cs.reset()
	s.KeepAgenda(e.cs)
	e.cs, e.env = settledAgenda, rhsEnv{}
	e.settled = true
}

// settledAgenda is the conflict set every settled engine reads: empty,
// and never written, because a settled engine refuses every operation
// that would write it.
var settledAgenda = &conflictSet{}
