package ops5

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"sort"
	"strings"
	"sync/atomic"

	"spampsm/internal/rete"
	"spampsm/internal/symtab"
	"spampsm/internal/wm"
)

// ErrInterrupted is returned by Run when Interrupt stops the
// recognize-act loop before quiescence (e.g. a task-process deadline).
var ErrInterrupted = errors.New("ops5: run interrupted")

// ErrSettled is returned by every operation that would change a
// settled engine (see Engine.Settle): its match state has gone back to
// the worker that lent it.
var ErrSettled = errors.New("ops5: engine settled")

// Instruction costs of interpreter operations outside the match
// (simulated NS32332 instructions).
const (
	CostResolveCompare = 30  // one conflict-resolution comparison
	CostActionBase     = 240 // dispatch of one RHS action
	CostWriteArg       = 45  // formatting one write argument
	CostBindOp         = 60  // one RHS bind
	CostComputeOp      = 36  // one arithmetic operation in compute
	CostExternalBase   = 150 // calling out to an external function
)

// ExternalFn is a task-related computation invoked from the RHS: it
// receives evaluated arguments, valid only for the call, and returns a
// value plus its own cost in simulated instructions. This is how SPAM's
// geometric computation (performed outside OPS5 in the original
// system) is metered.
type ExternalFn func(args []symtab.Value) (symtab.Value, float64, error)

// CycleCost is the cost breakdown of one recognize-act cycle: the
// conflict-resolution cost, the act cost, and the match work triggered
// by the act's working-memory changes.
type CycleCost struct {
	Resolve float64
	Act     float64
	Match   float64
}

// Total returns the cycle's total instruction cost.
func (c CycleCost) Total() float64 { return c.Resolve + c.Act + c.Match }

// CostLog is the complete cost record of one engine run: the
// initialization cost (loading the initial working memory through the
// match network), one CycleCost per production firing, and the task's
// modeled memory footprint. With capture on (WithCapture) it also holds
// the forests of node activations that the match-parallelism
// simulation schedules: InitRoots for the initialization and
// CycleRoots, one forest per entry of Cycles. Without capture both are
// nil.
type CostLog struct {
	Init       float64
	InitRoots  []*rete.Activation
	Cycles     []CycleCost
	CycleRoots [][]*rete.Activation
	Mem        MemStats
}

// Roots returns cycle i's activation forest, nil without capture.
func (l *CostLog) Roots(i int) []*rete.Activation {
	if i < len(l.CycleRoots) {
		return l.CycleRoots[i]
	}
	return nil
}

// MemStats is the modeled memory record of one engine run, in the
// same simulated units as the instruction cost model (wm.WMEBytes,
// rete.TokenBytes). It is observational only: recording it never
// perturbs Counters or charges, so the differential oracles' byte
// identity is preserved — and because the token create/delete sequence
// is itself proven identical across matcher variants, so are the peaks.
type MemStats struct {
	// SeedWMEs / SeedBytes count the initial working memory asserted
	// into the engine before the run (the task's distributed seed).
	SeedWMEs  int
	SeedBytes float64
	// PeakWMEs / PeakTokens are high-water marks of simultaneously-live
	// WMEs and beta tokens over the whole engine lifetime.
	PeakWMEs   int
	PeakTokens int
	// PeakBytes is the modeled footprint the scheduler budgets against:
	// peak WME bytes plus peak token bytes. The two peaks need not
	// coincide in time, so this is a (tight, monotone) upper bound on
	// the true combined instantaneous peak.
	PeakBytes float64
}

// TotalInstr returns the run's total instruction count.
func (l *CostLog) TotalInstr() float64 {
	t := l.Init
	for _, c := range l.Cycles {
		t += c.Total()
	}
	return t
}

// MatchInstr returns the total match instructions (including init).
func (l *CostLog) MatchInstr() float64 {
	t := l.Init
	for _, c := range l.Cycles {
		t += c.Match
	}
	return t
}

// RunStats aggregates the statistics of one engine run.
type RunStats struct {
	Firings      int
	Cycles       int
	RHSActions   int
	MatchInstr   float64
	ResolveInstr float64
	ActInstr     float64
	InitInstr    float64
	Halted       bool
}

// TotalInstr returns the run's total simulated instructions.
func (s RunStats) TotalInstr() float64 {
	return s.MatchInstr + s.ResolveInstr + s.ActInstr + s.InitInstr
}

// MatchFraction returns the fraction of total time spent in match
// (init counts as match: it is alpha/beta network loading).
func (s RunStats) MatchFraction() float64 {
	t := s.TotalInstr()
	if t == 0 {
		return 0
	}
	return (s.MatchInstr + s.InitInstr) / t
}

// Option configures an Engine.
type Option func(*Engine)

// WithOutput directs (write ...) output; the default discards it.
func WithOutput(w io.Writer) Option { return func(e *Engine) { e.out = w } }

// WithCapture enables per-activation cost capture for the parallel
// match simulation. Without it only aggregate costs are recorded.
func WithCapture() Option { return func(e *Engine) { e.capture = true } }

// WithTrace enables the OPS5 "watch" facility: each firing is printed
// with its instantiation's timetags, and each working-memory change is
// logged as it happens.
func WithTrace(w io.Writer) Option { return func(e *Engine) { e.trace = w } }

// WithReference builds the engine the differential oracles hold the
// production engine to: the program compiled privately for this engine,
// bypassing the Program's compiled-variant cache, with every pattern's
// constant tests withheld from the network (rete.Pattern.Consts), so
// each working-memory change sweeps every alpha memory of its class
// instead of being dispatched. Same firings, Counters and activation
// forests, only slower. Nothing in production sets it.
func WithReference() Option { return func(e *Engine) { e.reference = true } }

// WithScratch makes the engine borrow its match state from the task
// worker's arena s until Engine.Settle gives it back; with a nil s the
// engine owns its memory. A Scratch is single-owner, lent to one engine
// at a time, and not safe for concurrent use.
func WithScratch(s *Scratch) Option { return func(e *Engine) { e.scratch = s } }

// Engine is one OPS5 interpreter instance: a production memory compiled
// into a Rete network, a working memory, and a conflict set. Engines
// are deliberately self-contained — the SPAM/PSM task processes each
// own a full engine (working-memory distribution).
type Engine struct {
	prog      *Program
	classes   *wm.Classes
	mem       *wm.Memory
	net       *rete.Network
	cs        *conflictSet
	strategy  Strategy
	compiled  map[string]*compiledProd
	externals map[string]ExternalFn
	sharedExt bool // externals is a UseExternals table: copy before writing
	out       io.Writer
	trace     io.Writer
	capture   bool
	reference bool
	// scratch is the worker arena the network borrows from at
	// construction; consumed (and cleared) by finish.
	scratch *Scratch
	halted  bool
	running bool
	settled bool // Settle gave the match state back; read-only now
	// interrupted is set asynchronously by Interrupt and polled once
	// per recognize-act cycle, so a wall-clock watchdog can stop a
	// runaway task without killing its goroutine.
	interrupted atomic.Bool
	stats       RunStats
	env         rhsEnv // the firing in progress (see fire)
	// log is allocated separately from the Engine so that callers can
	// retain the cost log while the engine itself (its Rete network and
	// working memory) is garbage collected.
	log *CostLog
}

// NewEngine returns a ready engine over the program. The compilation
// (production lowering and Rete template construction) is memoized on
// the Program per capture variant: the first engine of a variant pays
// the full compile, every later one is O(nodes) instantiation of the
// shared template. WithReference compiles privately instead.
func NewEngine(prog *Program, opts ...Option) (*Engine, error) {
	e := newEngineShell(prog)
	for _, opt := range opts {
		opt(e)
	}
	var cp *CompiledProgram
	var err error
	if e.reference {
		cp, err = compileVariant(prog, true, e.capture)
	} else {
		cp, err = prog.compiledVariant(e.capture)
	}
	if err != nil {
		return nil, err
	}
	return cp.finish(e)
}

// Register installs an external function. Functions must be registered
// for every name in the program's external declaration before Run.
func (e *Engine) Register(name string, fn ExternalFn) {
	if e.externals == nil || e.sharedExt {
		e.externals, e.sharedExt = maps.Collect(maps.All(e.externals)), false
	}
	e.externals[name] = fn
}

// UseExternals makes fns the engine's external functions. The table is
// shared — every engine handed it reads it, none writes it — so a
// caller that builds many engines against one set builds it once; a
// Register afterwards copies it first.
func (e *Engine) UseExternals(fns map[string]ExternalFn) { e.externals, e.sharedExt = fns, true }

// Classes exposes the engine's class registry.
func (e *Engine) Classes() *wm.Classes { return e.classes }

// Assert adds a WME to working memory from outside the rule system
// (initial task loading). Its match cost is accounted as
// initialization.
func (e *Engine) Assert(class string, sets map[string]symtab.Value) (*wm.WME, error) {
	if err := e.mutable("Assert"); err != nil {
		return nil, err
	}
	w, err := e.mem.Make(class, sets)
	if err != nil {
		return nil, err
	}
	e.seed(w)
	return w, nil
}

// seed matches one seed WME, charging the match to initialization.
func (e *Engine) seed(w *wm.WME) {
	before := e.net.Totals().Cost
	e.net.Add(w)
	e.log.Init += e.net.Totals().Cost - before
	e.log.Mem.SeedWMEs++
	e.log.Mem.SeedBytes += wm.WMEBytes(len(w.Vals))
	e.syncMem()
}

// mutable reports why working memory may not be changed from outside
// the rule system right now: a Run is in progress, or the engine was
// settled.
func (e *Engine) mutable(op string) error {
	if e.settled {
		return fmt.Errorf("ops5: %s: %w", op, ErrSettled)
	}
	if e.running {
		return fmt.Errorf("ops5: %s during Run", op)
	}
	return nil
}

// Stats returns the run statistics so far.
func (e *Engine) Stats() RunStats {
	s := e.stats
	s.InitInstr = e.log.Init
	return s
}

// Log returns the engine's cost log.
func (e *Engine) Log() *CostLog { return e.log }

// syncMem copies the working memory's and network's occupancy
// high-water marks into the cost log. Called after every assertion
// entry point and (deferred) from Run, so the log carries the task's
// peak even when the run is interrupted or errors out — a failed
// attempt's footprint still informs the scheduler.
func (e *Engine) syncMem() {
	m := &e.log.Mem
	m.PeakWMEs = e.mem.PeakSize()
	m.PeakTokens = e.net.PeakTokens()
	m.PeakBytes = e.mem.PeakBytes() + float64(m.PeakTokens)*rete.TokenBytes
}

// MatchCounters returns the Rete network's aggregate match counters
// (simulated instruction accounting). The differential oracle asserts
// these are byte-identical between the production and reference
// (WithReference) engines.
func (e *Engine) MatchCounters() rete.Counters { return e.net.Totals() }

// Memory exposes the working memory (for result extraction). A settled
// engine that borrowed its worker's arena has given its WMEs back: its
// memory is empty.
func (e *Engine) Memory() *wm.Memory { return e.mem }

// WMEs returns the live WMEs of a class ordered by timetag (none once a
// borrowing engine is settled).
func (e *Engine) WMEs(class string) []*wm.WME { return e.mem.OfClass(class) }

// EachWME calls f on every live WME of a class in timetag order, as
// WMEs would list them, without building the list: what a task's
// reader walks (tlp.Rows) before the engine is settled.
func (e *Engine) EachWME(class string, f func(*wm.WME)) { e.mem.Each(class, f) }

// ConflictSetSize returns the number of live unfired instantiations:
// the length of ConflictSet, and 0 exactly when Run would stop at
// quiescence.
func (e *Engine) ConflictSetSize() int { return e.cs.Size() }

// ConflictSet lists the live unfired instantiations as
// "production-name [timetags]" strings, sorted — the OPS5 "cs" command.
func (e *Engine) ConflictSet() []string {
	var out []string
	for _, in := range e.cs.unfired {
		out = append(out, fmt.Sprintf("%s %v", in.cp.prod.Name, in.tags))
	}
	sort.Strings(out)
	return out
}

// DumpWM writes the live working memory to w in timetag order — the
// OPS5 "wm" command.
func (e *Engine) DumpWM(w io.Writer) {
	for _, el := range e.mem.Snapshot() {
		fmt.Fprintf(w, "%d: %s\n", el.TimeTag, el)
	}
}

// ProductionNames returns the production memory's names in definition
// order — the OPS5 "pm" command.
func (e *Engine) ProductionNames() []string {
	names := make([]string, len(e.prog.Productions))
	for i, p := range e.prog.Productions {
		names[i] = p.Name
	}
	return names
}

// Halted reports whether a (halt) action stopped the run.
func (e *Engine) Halted() bool { return e.halted }

// Interrupt asynchronously stops a running engine: the recognize-act
// loop polls the flag between cycles and returns ErrInterrupted. Safe
// to call from any goroutine; a subsequent Run clears the flag.
func (e *Engine) Interrupt() { e.interrupted.Store(true) }

// Run executes the recognize-act loop until quiescence, halt, or
// maxFirings productions have fired (0 means no limit). It returns the
// number of firings performed by this call.
func (e *Engine) Run(maxFirings int) (int, error) {
	if missing := e.missingExternals(); len(missing) > 0 {
		return 0, fmt.Errorf("ops5: externals not registered: %s", strings.Join(missing, ", "))
	}
	if e.settled {
		return 0, fmt.Errorf("ops5: Run: %w", ErrSettled)
	}
	e.running = true
	// The cycles accumulate in a buffer the conflict set carries — on a
	// borrowing engine, the one the last engine settled on this
	// worker's scratch parked — and are copied out exact-sized however
	// the run ends, so the log never shares memory with the buffer the
	// next engine reuses.
	cycles := e.cs.cycles[:0]
	defer func() {
		if len(cycles) > 0 {
			all := make([]CycleCost, len(e.log.Cycles)+len(cycles))
			copy(all[copy(all, e.log.Cycles):], cycles)
			e.log.Cycles = all
		}
		e.cs.cycles = cycles[:0]
		e.running = false
	}()
	defer e.syncMem()
	e.interrupted.Store(false)
	// Collect any activations pending from initialization.
	initRoots := e.net.TakeBatch()
	if len(initRoots) > 0 {
		e.log.InitRoots = append(e.log.InitRoots, initRoots...)
	}
	fired := 0
	for !e.halted && (maxFirings == 0 || fired < maxFirings) {
		if e.interrupted.Load() {
			e.stats.Halted = e.halted
			return fired, ErrInterrupted
		}
		e.stats.Cycles++
		// Resolve.
		inst := e.cs.Resolve(e.strategy)
		resolveCost := float64(e.cs.takeCompares()) * CostResolveCompare
		e.stats.ResolveInstr += resolveCost
		if inst == nil {
			// Quiescence: no unfired instantiation.
			break
		}
		e.cs.unlist(inst) // refraction: it stays, but is never selected again
		if e.trace != nil {
			fmt.Fprintf(e.trace, "%d. %s %v\n", e.stats.Firings+1, inst.cp.prod.Name, inst.tags)
		}
		// Act.
		e.net.StartBatch()
		e.cs.recycle()
		matchBefore := e.net.Totals().Cost
		actCost, err := e.fire(inst)
		if err != nil {
			return fired, fmt.Errorf("ops5: firing %s: %w", inst.cp.prod.Name, err)
		}
		matchCost := e.net.Totals().Cost - matchBefore
		e.stats.ActInstr += actCost
		e.stats.MatchInstr += matchCost
		e.stats.Firings++
		fired++
		cycles = append(cycles, CycleCost{Resolve: resolveCost, Act: actCost, Match: matchCost})
		if e.capture {
			e.log.CycleRoots = append(e.log.CycleRoots, e.net.TakeBatch())
		}
	}
	e.stats.Halted = e.halted
	return fired, nil
}

func (e *Engine) missingExternals() []string {
	var missing []string
	for _, name := range e.prog.Externals {
		if _, ok := e.externals[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	return missing
}

// rhsEnv is the environment of one firing.
type rhsEnv struct {
	inst  *instantiation
	binds map[string]symtab.Value
	cost  float64
}

func (e *Engine) fire(inst *instantiation) (float64, error) {
	// One environment per engine, reused across firings; binds is made
	// by the first bind action and emptied here.
	env := &e.env
	clear(env.binds)
	env.inst, env.cost = inst, 0
	for i, a := range inst.cp.prod.RHS {
		env.cost += CostActionBase
		e.stats.RHSActions++
		if err := e.execute(a, inst.cp.rhs[i], env); err != nil {
			return env.cost, err
		}
		if e.halted {
			break
		}
	}
	return env.cost, nil
}

// execute runs one RHS action; slots is the action's compiled
// attribute-set layout (compiledProd.rhs).
func (e *Engine) execute(a Action, slots []int, env *rhsEnv) error {
	switch act := a.(type) {
	case MakeAction:
		cd := e.classes.Lookup(act.Class)
		vals := e.mem.NewVals(cd.NumAttrs())
		if err := e.evalSets(act.Sets, slots, vals, env); err != nil {
			return err
		}
		w, err := e.mem.MakeVals(act.Class, vals)
		if err != nil {
			return err
		}
		e.net.Add(w)
		e.traceWM("=>WM", w)
	case ModifyAction:
		old, err := e.resolveRef(act.Ref, env)
		if err != nil {
			return err
		}
		// OPS5 modify = remove + make with a fresh timetag: the new
		// vector is the old one with the sets written over it.
		vals := e.mem.NewVals(len(old.Vals))
		copy(vals, old.Vals)
		if err := e.evalSets(act.Sets, slots, vals, env); err != nil {
			return err
		}
		if err := e.mem.Remove(old); err != nil {
			return err
		}
		e.net.Remove(old)
		e.traceWM("<=WM", old)
		w, err := e.mem.MakeVals(old.Class.Name, vals)
		if err != nil {
			return err
		}
		e.net.Add(w)
		e.traceWM("=>WM", w)
	case RemoveAction:
		w, err := e.resolveRef(act.Ref, env)
		if err != nil {
			return err
		}
		if err := e.mem.Remove(w); err != nil {
			return err
		}
		e.net.Remove(w)
		e.traceWM("<=WM", w)
	case BindAction:
		v, err := e.eval(act.Expr, env)
		if err != nil {
			return err
		}
		env.cost += CostBindOp
		if env.binds == nil {
			env.binds = map[string]symtab.Value{}
		}
		env.binds[act.Var] = v
	case WriteAction:
		var parts []string
		for _, arg := range act.Args {
			env.cost += CostWriteArg
			if _, isCrlf := arg.(CrlfExpr); isCrlf {
				parts = append(parts, "\n")
				continue
			}
			v, err := e.eval(arg, env)
			if err != nil {
				return err
			}
			parts = append(parts, v.String())
		}
		fmt.Fprint(e.out, strings.Join(parts, " "))
	case CallAction:
		fn, ok := e.externals[act.Fn]
		if !ok {
			return fmt.Errorf("external %s not registered", act.Fn)
		}
		_, cost, err := e.call(fn, act.Args, env)
		if err != nil {
			return fmt.Errorf("external %s: %w", act.Fn, err)
		}
		env.cost += CostExternalBase + cost
	case HaltAction:
		e.halted = true
	default:
		return fmt.Errorf("unknown action %T", a)
	}
	return nil
}

// traceWM logs one working-memory change when tracing is on.
func (e *Engine) traceWM(dir string, w *wm.WME) {
	if e.trace != nil {
		fmt.Fprintf(e.trace, "%s: %d %s\n", dir, w.TimeTag, w)
	}
}

// evalSets evaluates a make or modify action's attribute sets in
// order into their compiled slots of vals.
func (e *Engine) evalSets(sets []AttrSet, slots []int, vals []symtab.Value, env *rhsEnv) error {
	for i, s := range sets {
		v, err := e.eval(s.Expr, env)
		if err != nil {
			return err
		}
		vals[slots[i]] = v
	}
	return nil
}

func (e *Engine) resolveRef(r ElemRef, env *rhsEnv) (*wm.WME, error) {
	level, err := env.inst.cp.refLevel(r)
	if err != nil {
		return nil, err
	}
	w := env.inst.token.WMEAt(level)
	if w == nil {
		return nil, fmt.Errorf("element reference %s matches no WME (negated CE?)", r)
	}
	return w, nil
}

func (e *Engine) eval(x Expr, env *rhsEnv) (symtab.Value, error) {
	switch ex := x.(type) {
	case LitExpr:
		return ex.Val, nil
	case VarExpr:
		if v, ok := env.binds[ex.Name]; ok {
			return v, nil
		}
		if loc, ok := env.inst.cp.varLocs[ex.Name]; ok {
			w := env.inst.token.WMEAt(loc.ce)
			if w == nil {
				return symtab.Nil, fmt.Errorf("variable <%s> bound at a retracted level", ex.Name)
			}
			return w.GetAt(loc.attr), nil
		}
		return symtab.Nil, fmt.Errorf("unbound variable <%s>", ex.Name)
	case ComputeExpr:
		acc, err := e.eval(ex.Operands[0], env)
		if err != nil {
			return symtab.Nil, err
		}
		for i, op := range ex.Ops {
			rhs, err := e.eval(ex.Operands[i+1], env)
			if err != nil {
				return symtab.Nil, err
			}
			env.cost += CostComputeOp
			acc, err = arith(acc, op, rhs)
			if err != nil {
				return symtab.Nil, err
			}
		}
		return acc, nil
	case CallExpr:
		fn, ok := e.externals[ex.Fn]
		if !ok {
			return symtab.Nil, fmt.Errorf("external %s not registered", ex.Fn)
		}
		v, cost, err := e.call(fn, ex.Args, env)
		if err != nil {
			return symtab.Nil, fmt.Errorf("external %s: %w", ex.Fn, err)
		}
		env.cost += CostExternalBase + cost
		return v, nil
	case CrlfExpr:
		return symtab.Sym("\n"), nil
	default:
		return symtab.Nil, fmt.Errorf("unknown expression %T", x)
	}
}

// call evaluates an external call's arguments onto the conflict set's
// argument stack and calls fn on them. A nested call stacks its
// arguments above the outer call's and pops them before the outer call
// takes its own, so the stack is reused by every call of every engine
// the conflict set is parked for; fn must not keep its args.
func (e *Engine) call(fn ExternalFn, args []Expr, env *rhsEnv) (symtab.Value, float64, error) {
	base := len(e.cs.args)
	for _, a := range args {
		v, err := e.eval(a, env)
		if err != nil {
			e.cs.args = e.cs.args[:base]
			return symtab.Nil, 0, err
		}
		e.cs.args = append(e.cs.args, v)
	}
	v, cost, err := fn(e.cs.args[base:])
	e.cs.args = e.cs.args[:base]
	return v, cost, err
}

func arith(a symtab.Value, op byte, b symtab.Value) (symtab.Value, error) {
	if !a.IsNumber() || !b.IsNumber() {
		return symtab.Nil, fmt.Errorf("compute on non-number (%s %c %s)", a, op, b)
	}
	bothInt := a.Kind() == symtab.KindInt && b.Kind() == symtab.KindInt
	if bothInt {
		x, y := a.IntVal(), b.IntVal()
		switch op {
		case '+':
			return symtab.Int(x + y), nil
		case '-':
			return symtab.Int(x - y), nil
		case '*':
			return symtab.Int(x * y), nil
		case '/':
			if y == 0 {
				return symtab.Nil, fmt.Errorf("division by zero")
			}
			return symtab.Int(x / y), nil
		case '%':
			if y == 0 {
				return symtab.Nil, fmt.Errorf("modulus by zero")
			}
			return symtab.Int(x % y), nil
		}
	}
	x, y := a.FloatVal(), b.FloatVal()
	switch op {
	case '+':
		return symtab.Float(x + y), nil
	case '-':
		return symtab.Float(x - y), nil
	case '*':
		return symtab.Float(x * y), nil
	case '/':
		if y == 0 {
			return symtab.Nil, fmt.Errorf("division by zero")
		}
		return symtab.Float(x / y), nil
	case '%':
		return symtab.Nil, fmt.Errorf("modulus on floats")
	}
	return symtab.Nil, fmt.Errorf("unknown operator %c", op)
}
