package spam

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"spampsm/internal/ops5"
	"spampsm/internal/rete"
	"spampsm/internal/scene"
	"spampsm/internal/symtab"
	"spampsm/internal/tlp"
	"spampsm/internal/wm"
)

// Level is the LCC decomposition level of Section 4: Level 4 = one
// task per object class, Level 3 = per object, Level 2 = per
// (object, constraint), Level 1 = per (object, constraint, component).
type Level int

// Decomposition levels.
const (
	Level1 Level = 1
	Level2 Level = 2
	Level3 Level = 3
	Level4 Level = 4
)

// sym shortens symbol construction in WM assembly.
func sym(s string) symtab.Value { return symtab.Sym(s) }

// The constant symbols every seed row and external answer carries,
// interned once: assembling a row or answering an external takes no
// lock for them.
var (
	symActive       = sym("active")
	symMeasured     = sym("measured")
	symClosed       = sym("closed")
	symHypothesized = sym("hypothesized")
	symT            = sym("t")
	symF            = sym("f")
)

// taskMemEst models a task's peak footprint from the number of WMEs
// it is expected to hold — its seed rows plus the hypotheses it
// produces, one fragment per region for an RTF task — charging each a
// nominal 8-slot WME plus one beta-token allowance, in the same
// simulated-byte units as ops5.MemStats.PeakBytes. The estimate feeds
// the schedulers (tlp.Task.MemEst) at queue-build time, before any
// engine exists; the measured PeakBytes replaces it wherever a cost
// log is available (machine.Specs).
func taskMemEst(sp *taskSpec) float64 {
	return float64(sp.rows+len(sp.regions)) * (wm.WMEBytes(8) + rete.TokenBytes)
}

// loadEngine builds one task's engine: instantiate the phase program —
// capturing its match forests if asked, as the ops5 reference on a
// reference store — register the store's externals, then load its seed
// rows into it. With a worker's match arena s the engine borrows its
// match state from it, the vectors of the rows load writes included,
// and the worker settles it when the task ends; with s nil (a serial
// replay) the engine owns its memory. Every engine the package builds —
// a one-shot task's, a session task's first run or re-run, a cluster
// worker's rebuild of a shipped task — comes from here, so they are the
// same engine by construction.
func loadEngine(prog *ops5.Program, store *RegionStore, capture bool, s *ops5.Scratch, load func(*ops5.Engine) error) (*ops5.Engine, error) {
	var opts []ops5.Option
	if capture {
		opts = append(opts, ops5.WithCapture())
	}
	if store.reference {
		opts = append(opts, ops5.WithReference())
	}
	if s != nil {
		opts = append(opts, ops5.WithScratch(s))
	}
	e, err := ops5.NewEngine(prog, opts...)
	if err != nil {
		return nil, err
	}
	store.Register(e)
	if err := load(e); err != nil {
		return nil, err
	}
	return e, nil
}

// WireBuild resolves a shipped task description against this dataset:
// it returns the engine builder a cluster worker runs in place of the
// original Task.Build closure, loading the shipped seed batch into the
// worker's own (identically generated) dataset through loadEngine, and
// the phase's keep rule: which rows of the spec's Extract classes the
// result frame ships (nil: all of them). A worker never captures: a
// result frame carries no activation forest.
func (d *Dataset) WireBuild(spec *tlp.WireSpec) (build func(s *ops5.Scratch) (*ops5.Engine, error), keep func(*wm.WME) bool, err error) {
	def, ok := phaseDefs[spec.Phase]
	if !ok {
		return nil, nil, fmt.Errorf("spam: wire task phase %q unknown (want rtf, lcc, fa or model)", spec.Phase)
	}
	prog, seeds := def.prog(d.Progs), spec.Seeds
	return func(s *ops5.Scratch) (*ops5.Engine, error) {
		return loadEngine(prog, d.Store, false, s, func(e *ops5.Engine) error { return e.AssertBatch(seeds) })
	}, def.keep, nil
}

// taskSpec is the one description of a task: its stable key (the task
// ID everywhere — pool, wire, session cache), the scheduler's
// estimates, its phase, and the inputs its seed working memory is
// assembled from. The runnable tlp.Task (newTask), the wire frame and
// the session signature are all derived from it. A spec holds inputs,
// not seeds: a task's rows are assembled inside its build, straight
// into its engine, so no seed set outlives its task.
type taskSpec struct {
	key, label, group string
	est               float64
	rows              int    // a bound on its seed rows: sizes a wire spec's seeds and the memory estimate
	phase             string // rtf | lcc | fa | model: the phaseDefs key

	batchID int              // rtf
	regions []*scene.Region  // rtf: the batch
	units   []lccUnit        // lcc: several share an engine at Level 4
	seed    *Fragment        // fa: the seed fragment
	faType  string           // fa
	members []*Fragment      // fa: consistent member partners
	pairs   []ConsistentPair // fa: the consistency rows behind them
	frags   []*Fragment      // model: the fragment pool
	fas     []FunctionalArea // model
}

// phaseDefs is the one phase table: which program a phase's tasks
// instantiate, which classes of the final working memory its read
// reads and, beside them, which of those rows the read keeps (what a
// cluster result frame ships; nil keeps every row), how the read turns
// them into the task's output (all a session retains of a finished
// task's working memory), how a spec's seed rows are assembled, and
// what the task's externals would answer — everything the rules can
// read of the store beyond those rows, in seed order, through the
// functions the externals themselves call (nil: the phase's externals
// answer nothing a run can observe; only a session signature asks).
var phaseDefs = map[string]struct {
	prog    func(*Programs) *ops5.Program
	extract []string
	keep    func(*wm.WME) bool
	read    func(tlp.Rows) any
	seeds   func(seedSet, *taskSpec) error
	answers func(*RegionStore, *taskSpec, *signer)
}{
	"rtf":   {func(p *Programs) *ops5.Program { return p.RTF }, []string{"fragment"}, nil, readRTF, rtfSeeds, rtfAnswers},
	"lcc":   {func(p *Programs) *ops5.Program { return p.LCC }, []string{"check", "lcc-result"}, keepHeldChecks, readLCC, lccSeeds, lccAnswers},
	"fa":    {func(p *Programs) *ops5.Program { return p.FA }, []string{"fa", "prediction"}, nil, readFA, faSeeds, faAnswers},
	"model": {func(p *Programs) *ops5.Program { return p.Model }, []string{"model"}, nil, readModel, modelSeeds, nil},
}

// slots resolves a read's attribute names to the slots of the class a
// walk hands it, once per class rather than once per row.
type slots struct {
	c  *wm.ClassDef
	at [4]int
}

// of resolves names in w's class (a no-op after the walk's first row).
func (s *slots) of(w *wm.WME, names ...string) {
	if w.Class != s.c {
		s.c = w.Class
		for i, n := range names {
			s.at[i] = w.Class.AttrIndex(n)
		}
	}
}

// intAt and symAt read w's value of the i'th resolved name.
func (s *slots) intAt(w *wm.WME, i int) int    { return int(w.GetAt(s.at[i]).IntVal()) }
func (s *slots) symAt(w *wm.WME, i int) string { return w.GetAt(s.at[i]).SymVal() }

// gather appends part of every clean result's output, in result
// order, to dst, in one exactly sized slice (dst itself when there is
// nothing to add). The output is what the task's Read answered or, for
// a result that carries only its engine (a serial replay's), what read
// reads of the engine, kept as the result's Output for the next pass.
func gather[T, E any](dst []E, results []*tlp.Result, read func(tlp.Rows) any, part func(T) []E) []E {
	each := func(f func([]E)) {
		for _, r := range results {
			if r == nil || r.Err != nil {
				continue
			}
			if r.Output == nil && r.Engine != nil {
				r.Output = read(r.Engine)
			}
			if o, ok := r.Output.(T); ok {
				f(part(o))
			}
		}
	}
	n := 0
	each(func(p []E) { n += len(p) })
	if n == 0 {
		return dst
	}
	all := append(make([]E, 0, len(dst)+n), dst...)
	each(func(p []E) { all = append(all, p...) })
	return all
}

// newTask derives the runnable task from its spec. Its engine borrows
// the executing worker's match arena, and its seed rows are assembled
// on demand into their consumer — inside its build on the pool worker,
// straight into the engine; inside Wire on a cluster coordinator, into
// a recycled tlp.WireSpec. A session's task, first run or re-run, is the same
// task: the session signs the rows by assembling them once more.
func newTask(prog *ops5.Program, store *RegionStore, sp *taskSpec, capture bool) *tlp.Task {
	def := phaseDefs[sp.phase]
	extract := def.extract // all the Wire closure needs of the phase
	build := func(s *ops5.Scratch) (*ops5.Engine, error) {
		return loadEngine(prog, store, capture, s, func(e *ops5.Engine) error { return assemble(prog, store, sp, e) })
	}
	return &tlp.Task{
		ID: sp.key, Label: sp.label, Group: sp.group,
		EstSize: sp.est, MemEst: taskMemEst(sp),
		Read:      def.read,
		Build:     func() (*ops5.Engine, error) { return build(nil) },
		BuildWith: build,
		Wire: func() (*tlp.WireSpec, error) {
			spec := tlp.NewWireSpec(store.Scene().Name, sp.phase, extract, sp.rows)
			if err := assemble(prog, store, sp, spec); err != nil {
				spec.Release()
				return nil, err
			}
			return spec, nil
		},
	}
}

// newTasks derives one phase queue's tasks from its specs.
func newTasks(prog *ops5.Program, store *RegionStore, specs []taskSpec, capture bool) []*tlp.Task {
	tasks := make([]*tlp.Task, len(specs))
	for i := range specs {
		tasks[i] = newTask(prog, store, &specs[i], capture)
	}
	return tasks
}

// seedSet assembles a task's seed working memory, in assertion order,
// into a sink: the task's engine (so a plain row's vector comes from
// the worker's arena), a pooled tlp.WireSpec, or a session's
// signer, which hashes each row as it arrives. Row shapes are resolved
// once per program (ops5.Program.SeedRow) and each row is then a
// slot-ordered value vector — no map, no name lookup. The first failure
// sticks. Fragment rows — the WMEs that recur across overlapping tasks —
// go through the RegionStore's shared-seed cache, so a fragment's value
// vector and routing digest are computed once per scene, not once per
// task.
type seedSet struct {
	prog  *ops5.Program
	store *RegionStore
	sink  ops5.SeedSink
	frag  *ops5.SeedClass
	err   error
}

// assemble writes the spec's seed rows into sink. The phase's seeds
// function takes the set by value and returns its error, so no pointer
// to it crosses the function value and it stays on the stack.
func assemble(prog *ops5.Program, store *RegionStore, sp *taskSpec, sink ops5.SeedSink) error {
	return phaseDefs[sp.phase].seeds(seedSet{prog: prog, store: store, sink: sink}, sp)
}

// row resolves one shape of plain (task-local) seed row: its class and
// the attributes add's values will set, in order.
func (ss *seedSet) row(class string, attrs ...string) *ops5.SeedRow {
	r, err := ss.prog.SeedRow(class, attrs...)
	if err != nil && ss.err == nil {
		ss.err = err
	}
	return r
}

// add writes one row of a resolved shape.
func (ss *seedSet) add(r *ops5.SeedRow, vals ...symtab.Value) {
	if ss.err == nil {
		ss.err = r.Put(ss.sink, vals...)
	}
}

// addFragment writes a fragment hypothesis row, shared through the
// scene's seed cache.
func (ss *seedSet) addFragment(f *Fragment) {
	if ss.frag == nil && ss.err == nil {
		ss.frag, ss.err = ss.prog.SeedClass("fragment")
	}
	if ss.err != nil {
		return
	}
	s, err := ss.store.FragmentSeed(ss.frag, f)
	if err == nil {
		err = ss.sink.AssertSeed(s)
	}
	ss.err = err
}

// ---------------------------------------------------------------------------
// RTF phase tasks

// BuildRTFTasks decomposes the RTF phase: each task classifies one
// batch of regions. The decomposition yields the paper's ~60-100 tasks
// per dataset at roughly Level-2 granularity. With capture the tasks'
// engines record per-activation match forests (ops5.WithCapture), for
// the match-parallelism simulation.
func BuildRTFTasks(kb *KB, store *RegionStore, prog *ops5.Program, batchSize int, capture bool) []*tlp.Task {
	return newTasks(prog, store, rtfSpecs(store, batchSize), capture)
}

// rtfSpecs enumerates the RTF tasks over the current scene by region-ID
// cell: region r belongs to batch (r.ID−1)/batchSize (default 3),
// whatever its position in the slice; batches are ordered by first
// appearance, members in scene order. A scene numbered 1…N in slice
// order — everything the generators build — batches exactly as
// regions[start:start+batchSize] would. RTF classification depends on
// batch composition — rtf-align boosts fragment pairs within one task's
// working memory — so a session must batch exactly as a from-scratch
// run does, and a batch must not depend on what happened to its
// neighbours: a removal leaves its own batch short and new IDs open new
// batches, every other batch keeps its members.
func rtfSpecs(store *RegionStore, batchSize int) []taskSpec {
	if batchSize < 1 {
		batchSize = 3
	}
	name, regions := store.Scene().Name, store.Scene().Regions
	at := map[int]int{} // cell → index in specs, numbered first so specs is sized exactly
	for _, r := range regions {
		if _, ok := at[(r.ID-1)/batchSize]; !ok {
			at[(r.ID-1)/batchSize] = len(at)
		}
	}
	specs := make([]taskSpec, 0, len(at))
	for _, r := range regions {
		cell := (r.ID - 1) / batchSize
		i := at[cell]
		if i == len(specs) {
			specs = append(specs, taskSpec{
				key: fmt.Sprintf("rtf-%s-%d", name, cell), group: "rtf", phase: "rtf",
				// batchSize is a client's number on the serving path:
				// a hint, never more than there are regions.
				batchID: cell, regions: make([]*scene.Region, 0, min(batchSize, len(regions))),
			})
		}
		specs[i].regions = append(specs[i].regions, r)
	}
	for i := range specs {
		sp := &specs[i]
		sp.label = fmt.Sprintf("RTF batch %d (%d regions)", sp.batchID, len(sp.regions))
		sp.est = float64(len(sp.regions))
		sp.rows = 1 + len(sp.regions)
	}
	return specs
}

// rtfSeeds assembles one RTF task's seed working memory — the task
// control row plus a measured-region row per batch member, in
// assertion order.
func rtfSeeds(ss seedSet, sp *taskSpec) error {
	task := ss.row("rtf-task", "batch", "status")
	region := ss.row("region", "id", "batch", "area", "elong", "compact", "intensity", "texture", "status")
	batch := symtab.Int(int64(sp.batchID))
	ss.add(task, batch, symActive)
	for _, r := range sp.regions {
		area, elong, compact, intensity, texture := ss.store.MeasurementsOf(r)
		ss.add(region, symtab.Int(int64(r.ID)), batch,
			symtab.Float(area), symtab.Float(elong), symtab.Float(compact),
			symtab.Float(intensity), symtab.Float(texture), symMeasured)
	}
	return ss.err
}

// rtfAnswers: rtf-verify and rtf-verify-align are (call …)s — their
// values are discarded, and all a run keeps of them is a cost that
// depends on the regions' vertex counts, which can change while the
// quantized measurement rows stay identical.
func rtfAnswers(_ *RegionStore, sp *taskSpec, sig *signer) {
	for _, r := range sp.regions {
		sig.answer(len(r.Poly), 0)
	}
}

// readRTF is the RTF phase's read: a task's fragment hypotheses, in
// timetag order.
func readRTF(rows tlp.Rows) any {
	var frags []Fragment
	var s slots
	rows.EachWME("fragment", func(w *wm.WME) {
		s.of(w, "id", "region", "type", "conf")
		frags = append(frags, Fragment{ID: s.intAt(w, 0), RegionID: s.intAt(w, 1),
			Type: scene.Kind(s.symAt(w, 2)), Conf: s.intAt(w, 3)})
	})
	return frags
}

// ExtractFragments merges the fragment hypotheses of RTF task results,
// ordered by fragment ID.
func ExtractFragments(results []*tlp.Result) []*Fragment {
	all := gather(nil, results, readRTF, func(fs []Fragment) []Fragment { return fs })
	frags := slices.Grow([]*Fragment(nil), len(all)) // nil when there are none
	for i := range all {
		frags = append(frags, &all[i])
	}
	slices.SortFunc(frags, byFragmentID)
	return frags
}

// ---------------------------------------------------------------------------
// LCC phase tasks

// lccUnit is one (focal, constraint-subset) work assignment: per
// constraint, ascending by constraint ID — the scope rows' assertion
// order — the candidate partners to check.
type lccUnit struct {
	focal    *Fragment
	cid      string // "all" means every constraint of the class
	checks   []lccCheck
	expected int
}

// lccCheck is one constraint's partner set within a unit. c points into
// the KB's per-subject constraint slices, which never move once the KB
// is built.
type lccCheck struct {
	c        *Constraint
	partners []*Fragment
}

// byFragmentID orders fragments by ascending ID, which is unique in a
// pool.
func byFragmentID(a, b *Fragment) int { return cmp.Compare(a.ID, b.ID) }

// indexOfID returns the position of fragment id in an ID-sorted pool,
// -1 when the pool has no such fragment.
func indexOfID(pool []*Fragment, id int) int {
	if i, ok := slices.BinarySearchFunc(pool, id, func(f *Fragment, id int) int { return cmp.Compare(f.ID, id) }); ok {
		return i
	}
	return -1
}

// partnerQuery returns the LCC partner search over one fragment pool:
// a grid built here once over the pool, or, on a reference store,
// NearbyFragments' scan. The grid orders candidates by fragment ID and
// the scan by pool position, so all must be sorted by ascending ID for
// the two to agree: every pool a run hands over is (ExtractFragments
// sorts; reEntryFragments appends IDs above the maximum). The grid
// answers into one reused buffer and hands out exact-capacity windows
// of slabs a pool's size each (nil when there is no candidate): a slab
// that cannot take an answer is left as it is, not regrown.
func partnerQuery(store *RegionStore, all []*Fragment) func(*Fragment, Constraint) []*Fragment {
	grid := newLiveGrid(store, all)
	if grid == nil {
		return func(f *Fragment, c Constraint) []*Fragment {
			return NearbyFragments(store, f, c.Object, all, c.Radius)
		}
	}
	var slab, buf []*Fragment
	return func(f *Fragment, c Constraint) []*Fragment {
		if buf = grid.query(buf[:0], f, c.Object, c.Radius); cap(slab)-len(slab) < len(buf) {
			slab = make([]*Fragment, 0, max(len(buf), len(all)))
		}
		slab = append(slab, buf...)
		return window(slab, len(buf))
	}
}

// unitsWith enumerates the work units of a decomposition level: focals
// are the objects to check, query (see partnerQuery) finds each
// constraint's candidate partners. A first count sizes one slab for
// every (focal, constraint) check and the units slice: at Level 3 and 4
// a unit's checks are its focal's window of the slab, ascending by
// constraint ID; at Level 2 a unit is one check, in the class's
// constraint order. Level 1, which no measured path runs, gives each
// unit a single-partner check of its own and grows its units slice.
func unitsWith(kb *KB, focals []*Fragment, level Level, query func(*Fragment, Constraint) []*Fragment) []lccUnit {
	n, nunits := 0, 0 // checks; Level 3 and 4 units: focals with a constraint
	for _, f := range focals {
		k := len(kb.ConstraintsFor(f.Type))
		n, nunits = n+k, nunits+min(k, 1)
	}
	if level == Level2 {
		nunits = n
	}
	// checks never outgrows its capacity: the windows stay valid.
	checks, units := make([]lccCheck, 0, n), make([]lccUnit, 0, nunits)
	for _, f := range focals {
		cons := kb.ConstraintsFor(f.Type)
		if len(cons) == 0 {
			continue
		}
		for i := range cons {
			checks = append(checks, lccCheck{&cons[i], query(f, cons[i])})
		}
		fc := window(checks, len(cons))
		switch level {
		case Level3, Level4:
			// Constraint IDs are unique: the order needs no stable sort.
			slices.SortFunc(fc, func(a, b lccCheck) int { return cmp.Compare(a.c.ID, b.c.ID) })
			u := lccUnit{focal: f, cid: "all", checks: fc}
			for _, ck := range fc {
				u.expected += len(ck.partners)
			}
			units = append(units, u)
		case Level2:
			for i, ck := range fc {
				units = append(units, lccUnit{focal: f, cid: ck.c.ID, checks: fc[i : i+1 : i+1], expected: len(ck.partners)})
			}
		case Level1:
			for _, ck := range fc {
				for _, p := range ck.partners {
					units = append(units, lccUnit{focal: f, cid: ck.c.ID, checks: []lccCheck{{ck.c, []*Fragment{p}}}, expected: 1})
				}
			}
		}
	}
	return units
}

// lccSeeds assembles the seed working memory of a set of LCC work
// units, in assertion order: per unit, the (deduplicated) focal and
// partner fragments with their scope triples, then the support and
// task control rows.
func lccSeeds(ss seedSet, sp *taskSpec) error {
	scope := ss.row("scope", "object", "constraint", "partner")
	support := ss.row("support", "object", "count", "checked")
	task := ss.row("lcc-task", "object", "class", "cid", "expected", "status")
	// seen lists the fragments already written, scanned: the largest task
	// of the stock scenes holds 132 (SF, Level 4). It starts on the stack.
	var few [64]int
	seen := few[:0]
	addFrag := func(f *Fragment) {
		if slices.Contains(seen, f.ID) {
			return
		}
		seen = append(seen, f.ID)
		ss.addFragment(f)
	}
	for _, u := range sp.units {
		focal := symtab.Int(int64(u.focal.ID))
		addFrag(u.focal)
		for _, ck := range u.checks {
			cid := sym(ck.c.ID)
			for _, p := range ck.partners {
				addFrag(p)
				// The scope WME makes the decomposition exact: a check
				// runs iff the control process put its (object,
				// constraint, partner) triple into the task's working
				// memory, so every level computes the same checks.
				ss.add(scope, focal, cid, symtab.Int(int64(p.ID)))
			}
		}
		ss.add(support, focal, symtab.Int(0), symtab.Int(0))
		ss.add(task, focal, sym(string(u.focal.Type)), sym(u.cid), symtab.Int(int64(u.expected)), symActive)
	}
	return ss.err
}

// lccAnswers makes, per scope triple in seed order, the call its
// lcc-check-* rule makes: the boolean and the cost geo-test would
// return, from the evaluator the store's engines are bound to. The
// memo is warm for an unchanged pair; a changed pair's evaluation is
// work the re-run finds memoised.
func lccAnswers(st *RegionStore, sp *taskSpec, sig *signer) {
	for _, u := range sp.units {
		for _, ck := range u.checks {
			for _, p := range ck.partners {
				// A failed test answers (0, 0), which no evaluation does.
				ok, cost, _ := st.evaluate(ck.c.Relation, u.focal.RegionID, p.RegionID, ck.c.Eps)
				n := 0
				if ok {
					n = 1
				}
				sig.answer(n, cost)
			}
		}
	}
}

// BuildLCCTasks decomposes the LCC phase at the chosen level. The
// same generated rule set serves every level: the task's scope is its
// working memory. capture is BuildRTFTasks'.
func BuildLCCTasks(kb *KB, store *RegionStore, prog *ops5.Program, frags []*Fragment, level Level, capture bool) []*tlp.Task {
	units := unitsWith(kb, frags, level, partnerQuery(store, frags))
	return newTasks(prog, store, lccUnitSpecs(store.Scene().Name, units, level, false), capture)
}

// lccUnitSpecs converts LCC work units to task specs with stable keys:
// Level 4 by object class, Level 3 by focal fragment, Level 2 by
// (focal, constraint), Level 1 by (focal, constraint, partner) — never
// by queue position, so a task keeps its identity when the queue
// around it changes. The FA→LCC re-entry re-checks only the newly
// predicted fragments; their IDs depend on the fragment pool, so those
// tasks key under a distinct "lccr" namespace.
func lccUnitSpecs(name string, units []lccUnit, level Level, reentry bool) []taskSpec {
	prefix := "lcc"
	if reentry {
		prefix = "lccr"
	}
	if level == Level4 {
		// One task per object class, ascending, its units in unit order:
		// a window of one copy of the units, stably sorted by class. The
		// scope WMEs keep each focal object's checks identical to its
		// Level-3 task even though the class's objects share one working
		// memory.
		slab := slices.Clone(units)
		slices.SortStableFunc(slab, func(a, b lccUnit) int { return cmp.Compare(a.focal.Type, b.focal.Type) })
		var specs []taskSpec
		for len(slab) > 0 {
			k, n, est := slab[0].focal.Type, 0, 0
			for ; n < len(slab) && slab[n].focal.Type == k; n++ {
				est += slab[n].expected
			}
			group := slab[:n:n]
			slab = slab[n:]
			specs = append(specs, taskSpec{
				key:   fmt.Sprintf("%s4-%s-%s", prefix, name, k),
				label: fmt.Sprintf("LCC L4 class %s (%d objects)", k, len(group)),
				group: string(k),
				est:   float64(est),
				rows:  2*est + 3*len(group),
				phase: "lcc",
				units: group,
			})
		}
		return specs
	}
	specs := make([]taskSpec, 0, len(units))
	for i, u := range units {
		key := fmt.Sprintf("%s%d-%s-o%d", prefix, level, name, u.focal.ID)
		switch level {
		case Level2:
			key += "-" + u.cid
		case Level1:
			key += fmt.Sprintf("-%s-p%d", u.cid, u.checks[0].partners[0].ID)
		}
		specs = append(specs, taskSpec{
			key:   key,
			label: fmt.Sprintf("LCC L%d object %d %s (%d checks)", level, u.focal.ID, u.cid, u.expected),
			group: string(u.focal.Type),
			est:   float64(u.expected),
			rows:  2*u.expected + 3,
			phase: "lcc",
			units: units[i : i+1 : i+1],
		})
	}
	return specs
}

// ConsistentPair is one consistency record produced by LCC: focal
// object f and partner p satisfied the constraint's relation.
type ConsistentPair struct {
	Object   int
	Partner  int
	Relation string
}

// LCCOutcome is the per-object LCC verdict.
type LCCOutcome struct {
	Object  int
	Support int
	Checked int
	Status  string // consistent | weak
}

// lccOutput is an LCC task's answer: its consistent pairs and its
// per-object outcomes, each in timetag order.
type lccOutput struct {
	pairs []ConsistentPair
	outs  []LCCOutcome
}

// keepHeldChecks is the LCC phase's keep rule: readLCC keeps the check
// rows whose result is t and every lcc-result row, so a result frame
// ships those alone.
func keepHeldChecks(w *wm.WME) bool {
	return w.Class.Name != "check" || w.Get("result") == symT
}

// readLCC is the LCC phase's read. Of the task's check rows it keeps
// only those that held, counted first so the pairs are held exactly.
func readLCC(rows tlp.Rows) any {
	out := &lccOutput{}
	var s slots
	held := 0
	rows.EachWME("check", func(w *wm.WME) {
		if s.of(w, "result", "object", "partner", "relation"); w.GetAt(s.at[0]) == symT {
			held++
		}
	})
	out.pairs = make([]ConsistentPair, 0, held)
	rows.EachWME("check", func(w *wm.WME) { // s holds the count walk's slots
		if w.GetAt(s.at[0]) == symT {
			out.pairs = append(out.pairs, ConsistentPair{Object: s.intAt(w, 1), Partner: s.intAt(w, 2), Relation: s.symAt(w, 3)})
		}
	})
	rows.EachWME("lcc-result", func(w *wm.WME) {
		s.of(w, "object", "support", "checked", "status")
		out.outs = append(out.outs, LCCOutcome{Object: s.intAt(w, 0), Support: s.intAt(w, 1),
			Checked: s.intAt(w, 2), Status: s.symAt(w, 3)})
	})
	return out
}

// ExtractLCC merges the consistency pairs and per-object outcomes of
// LCC task results.
func ExtractLCC(results []*tlp.Result) ([]ConsistentPair, []LCCOutcome) {
	return appendLCC(nil, nil, results)
}

// appendLCC is ExtractLCC appending to the pairs and outcomes of an
// earlier pass, each in one exactly sized slice: the results' own are
// sorted, behind the earlier ones, which keep their order.
func appendLCC(pairs []ConsistentPair, outs []LCCOutcome, results []*tlp.Result) ([]ConsistentPair, []LCCOutcome) {
	np, no := len(pairs), len(outs)
	pairs = gather(pairs, results, readLCC, func(o *lccOutput) []ConsistentPair { return o.pairs })
	outs = gather(outs, results, readLCC, func(o *lccOutput) []LCCOutcome { return o.outs })
	newPairs, newOuts := pairs[np:], outs[no:]
	sort.Slice(newPairs, func(i, j int) bool {
		if newPairs[i].Object != newPairs[j].Object {
			return newPairs[i].Object < newPairs[j].Object
		}
		return newPairs[i].Partner < newPairs[j].Partner
	})
	sort.Slice(newOuts, func(i, j int) bool { return newOuts[i].Object < newOuts[j].Object })
	return pairs, outs
}

// ---------------------------------------------------------------------------
// FA phase tasks

// FunctionalArea is one aggregated context.
type FunctionalArea struct {
	Seed     int
	Type     string
	NMembers int
	Status   string
}

// Prediction is one context-driven sub-area prediction.
type Prediction struct {
	FA         int
	Kind       scene.Kind
	Candidates int
}

// BuildFATasks decomposes the FA phase: one task per functional-area
// seed (a consistent fragment of a seed class).
func BuildFATasks(kb *KB, store *RegionStore, prog *ops5.Program, frags []*Fragment,
	pairs []ConsistentPair, outcomes []LCCOutcome) []*tlp.Task {

	return newTasks(prog, store, faSpecs(kb, store.Scene().Name, frags, pairs, outcomes), false)
}

// faSpecs enumerates the FA tasks — one per (functional-area spec,
// consistent seed fragment), keyed by the seed fragment's ID. frags is
// an ID-sorted pool (ExtractFragments'), searched by binary search.
// One counting pass groups the pairs by object into one flat slice,
// each object's in input order, and the tasks' members and pairs are
// carved from two slabs sized by their seeds' pairs.
func faSpecs(kb *KB, name string, frags []*Fragment, pairs []ConsistentPair, outcomes []LCCOutcome) []taskSpec {
	consistent := make([]bool, len(frags))
	for _, o := range outcomes {
		if i := indexOfID(frags, o.Object); i >= 0 && o.Status == "consistent" {
			consistent[i] = true
		}
	}
	// frags[i]'s pairs are byObject[start[i]:start[i+1]]: each pair's
	// index in pairs and its partner's position in frags (-1: not in the
	// pool). Count, prefix-sum into each object's end, then fill from
	// the last pair back, moving each object's offset to its start.
	type objectPair struct{ pair, partner int32 }
	start := make([]int, len(frags)+1)
	for _, p := range pairs {
		if i := indexOfID(frags, p.Object); i >= 0 {
			start[i]++
		}
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	byObject := make([]objectPair, start[len(frags)])
	for k := len(pairs) - 1; k >= 0; k-- {
		if i := indexOfID(frags, pairs[k].Object); i >= 0 {
			start[i]--
			byObject[start[i]] = objectPair{int32(k), int32(indexOfID(frags, pairs[k].Partner))}
		}
	}

	n, bound := 0, 0
	for _, spec := range kb.FAs {
		for i, f := range frags {
			if f.Type == spec.Seed && consistent[i] {
				n, bound = n+1, bound+start[i+1]-start[i]
			}
		}
	}
	specs := make([]taskSpec, 0, n)
	members, memberPairs := make([]*Fragment, 0, bound), make([]ConsistentPair, 0, bound)
	mark := make([]int, len(frags)) // mark[j] == len(specs)+1: frags[j] is a member of the task being made
	for _, spec := range kb.FAs {
		for i, f := range frags {
			if f.Type != spec.Seed || !consistent[i] {
				continue
			}
			// Collect the consistent member partners and the expected
			// member count (distinct partners of member classes).
			m0, p0 := len(members), len(memberPairs)
			for _, p := range byObject[start[i]:start[i+1]] {
				if p.partner < 0 || !slices.Contains(spec.Members, frags[p.partner].Type) {
					continue
				}
				memberPairs = append(memberPairs, pairs[p.pair])
				if mark[p.partner] != len(specs)+1 {
					mark[p.partner] = len(specs) + 1
					members = append(members, frags[p.partner])
				}
			}
			nm, np := len(members)-m0, len(memberPairs)-p0
			specs = append(specs, taskSpec{
				key:     fmt.Sprintf("fa-%s-%s-%d", name, spec.Type, f.ID),
				label:   fmt.Sprintf("FA %s seed %d (%d members)", spec.Type, f.ID, nm),
				group:   "fa-" + string(spec.Type),
				est:     float64(nm + 1),
				rows:    nm + np + 2,
				phase:   "fa",
				seed:    f,
				faType:  spec.Type,
				members: window(members, nm),
				pairs:   window(memberPairs, np),
			})
		}
	}
	return specs
}

// window returns the last n elements of s, capacity n; nil when n is 0.
func window[E any](s []E, n int) []E {
	if n == 0 {
		return nil
	}
	return s[len(s)-n : len(s) : len(s)]
}

// faSeeds assembles one FA task's seed working memory: the seed
// fragment, its member fragments, the consistency rows supporting the
// aggregation, and the task control row, in assertion order.
func faSeeds(ss seedSet, sp *taskSpec) error {
	consistency := ss.row("consistency", "object", "partner", "relation", "result")
	task := ss.row("fa-task", "seed", "fatype", "expected", "status")
	ss.addFragment(sp.seed)
	for _, m := range sp.members {
		ss.addFragment(m)
	}
	for _, p := range sp.pairs {
		ss.add(consistency, symtab.Int(int64(p.Object)), symtab.Int(int64(p.Partner)), sym(p.Relation), symT)
	}
	ss.add(task, symtab.Int(int64(sp.seed.ID)), sym(sp.faType), symtab.Int(int64(len(sp.pairs))), symActive)
	return ss.err
}

// faAnswers: every fa-predict-* rule calls fa-predict-area on the seed
// fragment's region (the kind argument is not read), so one answer —
// the candidate count and cost — covers them all.
func faAnswers(st *RegionStore, sp *taskSpec, sig *signer) {
	n, cost, _ := st.PredictArea(sp.seed.RegionID)
	sig.answer(n, cost)
}

// faOutput is an FA task's answer: its functional areas and its
// predictions, each in timetag order.
type faOutput struct {
	fas   []FunctionalArea
	preds []Prediction
}

// readFA is the FA phase's read.
func readFA(rows tlp.Rows) any {
	out := &faOutput{}
	var s slots
	rows.EachWME("fa", func(w *wm.WME) {
		s.of(w, "seed", "fatype", "nmembers", "status")
		out.fas = append(out.fas, FunctionalArea{Seed: s.intAt(w, 0), Type: s.symAt(w, 1),
			NMembers: s.intAt(w, 2), Status: s.symAt(w, 3)})
	})
	rows.EachWME("prediction", func(w *wm.WME) {
		s.of(w, "fa", "kind", "candidates")
		out.preds = append(out.preds, Prediction{FA: s.intAt(w, 0), Kind: scene.Kind(s.symAt(w, 1)), Candidates: s.intAt(w, 2)})
	})
	return out
}

// ExtractFA merges the functional areas and predictions of FA task
// results.
func ExtractFA(results []*tlp.Result) ([]FunctionalArea, []Prediction) {
	fas := gather(nil, results, readFA, func(o *faOutput) []FunctionalArea { return o.fas })
	preds := gather(nil, results, readFA, func(o *faOutput) []Prediction { return o.preds })
	sort.Slice(fas, func(i, j int) bool { return fas[i].Seed < fas[j].Seed })
	sort.Slice(preds, func(i, j int) bool { return preds[i].FA < preds[j].FA })
	return fas, preds
}

// ---------------------------------------------------------------------------
// MODEL phase task

// Model is the final scene model.
type Model struct {
	Score int
	NFAs  int
}

// BuildMODELTask builds the single MODEL-phase task over the closed
// functional areas.
func BuildMODELTask(kb *KB, store *RegionStore, prog *ops5.Program,
	frags []*Fragment, fas []FunctionalArea) *tlp.Task {

	sp := modelSpec(store.Scene().Name, frags, fas)
	return newTask(prog, store, &sp, false)
}

// modelSpec describes the MODEL task.
func modelSpec(name string, frags []*Fragment, fas []FunctionalArea) taskSpec {
	return taskSpec{
		key:   fmt.Sprintf("model-%s", name),
		label: fmt.Sprintf("MODEL (%d functional areas)", len(fas)),
		group: "model",
		est:   float64(len(fas) + 1),
		rows:  2*len(fas) + 1,
		phase: "model",
		frags: frags,
		fas:   fas,
	}
}

// modelSeeds assembles the MODEL task's seed working memory: per
// closed functional area its (deduplicated) seed fragment and fa row,
// then the task control row, in assertion order.
func modelSeeds(ss seedSet, sp *taskSpec) error {
	faRow := ss.row("fa", "id", "seed", "fatype", "nmembers", "status")
	task := ss.row("model-task", "status")
	seen := make([]int, 0, len(sp.fas)) // the seeds written, scanned: a few dozen at most
	for _, fa := range sp.fas {
		if fa.Status != "closed" {
			continue
		}
		if i := indexOfID(sp.frags, fa.Seed); i >= 0 && !slices.Contains(seen, fa.Seed) {
			seen = append(seen, fa.Seed)
			ss.addFragment(sp.frags[i])
		}
		seed := symtab.Int(int64(fa.Seed))
		ss.add(faRow, seed, seed, sym(fa.Type), symtab.Int(int64(fa.NMembers)), symClosed)
	}
	ss.add(task, symActive)
	return ss.err
}

// readModel is the MODEL phase's read: the task's final models, in
// timetag order.
func readModel(rows tlp.Rows) any {
	var models []Model
	var s slots
	rows.EachWME("model", func(w *wm.WME) {
		if s.of(w, "status", "score", "nfas"); s.symAt(w, 0) == "final" {
			models = append(models, Model{Score: s.intAt(w, 1), NFAs: s.intAt(w, 2)})
		}
	})
	return models
}

// ExtractModel returns the final model from the MODEL task result.
func ExtractModel(results []*tlp.Result) (Model, bool) {
	models := gather(nil, results, readModel, func(ms []Model) []Model { return ms })
	if models == nil {
		return Model{}, false
	}
	return models[0], true
}
