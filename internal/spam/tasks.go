package spam

import (
	"fmt"
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
// it is expected to hold — seeds plus produced hypotheses — charging
// each a nominal 8-slot WME plus one beta-token allowance, in the
// same simulated-byte units as ops5.MemStats.PeakBytes. The estimate
// feeds the schedulers (tlp.Task.MemEst) at queue-build time, before
// any engine exists; the measured PeakBytes replaces it wherever a
// cost log is available (machine.Specs).
func taskMemEst(wmes int) float64 {
	return float64(wmes) * (wm.WMEBytes(8) + rete.TokenBytes)
}

// loadEngine builds one task's engine: instantiate the phase program —
// capturing its match forests if asked, as the ops5 reference on a
// reference store — register the store's externals, assert the seed
// batch. With a worker's match arena s the engine borrows its match
// state from it and the worker settles it when the task ends; with s
// nil (a serial replay) the engine owns its memory. Every engine the
// package builds — a one-shot task's, a session task's first run or
// re-run, a cluster worker's rebuild of a shipped task — comes from
// here, so they are the same engine by construction.
func loadEngine(prog *ops5.Program, store *RegionStore, seeds []ops5.Seed, capture bool, s *ops5.Scratch) (*ops5.Engine, error) {
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
	if err := e.AssertBatch(seeds); err != nil {
		return nil, err
	}
	return e, nil
}

// WireBuild resolves a shipped task description against this dataset:
// it returns the engine builder a cluster worker runs in place of the
// original Task.Build closure, loading the shipped seed batch into the
// worker's own (identically generated) dataset through loadEngine. A
// worker never captures: a result frame carries no activation forest.
func (d *Dataset) WireBuild(spec *tlp.WireSpec) (func(s *ops5.Scratch) (*ops5.Engine, error), error) {
	def, ok := phaseDefs[spec.Phase]
	if !ok {
		return nil, fmt.Errorf("spam: wire task phase %q unknown (want rtf, lcc, fa or model)", spec.Phase)
	}
	prog, seeds := def.prog(d.Progs), spec.Seeds
	return func(s *ops5.Scratch) (*ops5.Engine, error) {
		return loadEngine(prog, d.Store, seeds, false, s)
	}, nil
}

// taskSpec is the one description of a task: its stable key (the task
// ID everywhere — pool, wire, session cache), the scheduler's
// estimates, its phase, and the inputs its seed working memory is
// assembled from. The runnable tlp.Task (newTask), the wire frame and
// the session signature are all derived from it. A spec holds inputs,
// not seeds: a one-shot run assembles a task's seeds inside its build,
// so a phase's seed sets are never all alive at once.
type taskSpec struct {
	key, label, group string
	est, mem          float64
	phase             string // rtf | lcc | fa | model: the phaseDefs key
	continues         bool   // LCC re-entry: see tlp.Task.Continues

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
// instantiate, which classes of the final working memory its
// extractor reads (all a session retains of a finished task's working
// memory), how a spec's seed rows are assembled, and what the task's
// externals would answer — everything the rules can read of the store
// beyond those rows, in seed order, through the functions the
// externals themselves call (nil: the phase's externals answer nothing
// a run can observe; only a session signature asks).
var phaseDefs = map[string]struct {
	prog    func(*Programs) *ops5.Program
	extract []string
	seeds   func(prog *ops5.Program, st *RegionStore, sp *taskSpec) ([]ops5.Seed, error)
	answers func(*RegionStore, *taskSpec, *signer)
}{
	"rtf":   {func(p *Programs) *ops5.Program { return p.RTF }, []string{"fragment"}, rtfSeeds, rtfAnswers},
	"lcc":   {func(p *Programs) *ops5.Program { return p.LCC }, []string{"check", "lcc-result"}, lccSeeds, lccAnswers},
	"fa":    {func(p *Programs) *ops5.Program { return p.FA }, []string{"fa", "prediction"}, faSeeds, faAnswers},
	"model": {func(p *Programs) *ops5.Program { return p.Model }, []string{"model"}, modelSeeds, nil},
}

// newTask derives the runnable task from its spec. Its engine borrows
// the executing worker's match arena, and its seeds are assembled on
// demand — inside its build on the pool worker, inside Wire on a
// cluster coordinator — unless the caller hands over the set it
// already assembled (a Session, for the signature diff): that is all a
// session's task, first run or re-run, differs in.
func newTask(prog *ops5.Program, store *RegionStore, sp *taskSpec, capture bool, seeds []ops5.Seed) *tlp.Task {
	def := phaseDefs[sp.phase]
	extract := def.extract // all the task and its Wire closure need of def
	load := func() ([]ops5.Seed, error) {
		if seeds != nil {
			return seeds, nil
		}
		return def.seeds(prog, store, sp)
	}
	build := func(s *ops5.Scratch) (*ops5.Engine, error) {
		seeds, err := load()
		if err != nil {
			return nil, err
		}
		return loadEngine(prog, store, seeds, capture, s)
	}
	return &tlp.Task{
		ID: sp.key, Label: sp.label, Group: sp.group,
		EstSize: sp.est, MemEst: sp.mem, Continues: sp.continues,
		Extract:   extract,
		Build:     func() (*ops5.Engine, error) { return build(nil) },
		BuildWith: build,
		Wire: func() (*tlp.WireSpec, error) {
			seeds, err := load()
			if err != nil {
				return nil, err
			}
			return &tlp.WireSpec{Dataset: store.Scene().Name, Phase: sp.phase, Seeds: seeds, Extract: extract}, nil
		},
	}
}

// newTasks derives one phase queue's tasks from its specs.
func newTasks(prog *ops5.Program, store *RegionStore, specs []taskSpec, capture bool) []*tlp.Task {
	tasks := make([]*tlp.Task, len(specs))
	for i := range specs {
		tasks[i] = newTask(prog, store, &specs[i], capture, nil)
	}
	return tasks
}

// seedSet accumulates a task's seed working memory in assertion order;
// the builder hands the whole set to Engine.AssertBatch at once. A row
// shape is resolved against its class once per set (row) and each row
// is then a slot-ordered value vector — no map, no name lookup. The
// first failure sticks and done reports it; newSeedSet sizes the set
// from the spec, since it outlives its assembly. Fragment rows — the
// WMEs that recur across overlapping tasks — go through the
// RegionStore's shared-seed cache, so a fragment's value vector and
// routing digest are computed once per scene, not once per task.
type seedSet struct {
	prog  *ops5.Program
	store *RegionStore
	frag  *ops5.SeedClass
	seeds []ops5.Seed
	err   error
}

func newSeedSet(prog *ops5.Program, store *RegionStore, rows int) *seedSet {
	return &seedSet{prog: prog, store: store, seeds: make([]ops5.Seed, 0, rows)}
}

// row resolves one shape of plain (task-local) seed row: its class and
// the attributes add's values will set, in order.
func (ss *seedSet) row(class string, attrs ...string) *ops5.SeedRow {
	sc, err := ss.prog.SeedClass(class)
	var r *ops5.SeedRow
	if err == nil {
		r, err = sc.Row(attrs...)
	}
	if err != nil && ss.err == nil {
		ss.err = err
	}
	return r
}

// add appends one row of a resolved shape.
func (ss *seedSet) add(r *ops5.SeedRow, vals ...symtab.Value) {
	if ss.err == nil {
		ss.seeds = append(ss.seeds, r.Seed(vals...))
	}
}

// addFragment appends a fragment hypothesis row, shared through the
// scene's seed cache.
func (ss *seedSet) addFragment(f *Fragment) {
	if ss.frag == nil && ss.err == nil {
		ss.frag, ss.err = ss.prog.SeedClass("fragment")
	}
	if ss.err != nil {
		return
	}
	s, err := ss.store.FragmentSeed(ss.frag, f)
	if err != nil {
		ss.err = err
		return
	}
	ss.seeds = append(ss.seeds, s)
}

// done returns the assembled set and the first failure, if any.
func (ss *seedSet) done() ([]ops5.Seed, error) { return ss.seeds, ss.err }

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
	var specs []taskSpec
	at := map[int]int{} // cell → index in specs
	for _, r := range regions {
		cell := (r.ID - 1) / batchSize
		i, ok := at[cell]
		if !ok {
			i, at[cell] = len(specs), len(specs)
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
		sp.mem = taskMemEst(1 + 2*len(sp.regions))
	}
	return specs
}

// rtfSeeds assembles one RTF task's seed working memory — the task
// control row plus a measured-region row per batch member, in
// assertion order.
func rtfSeeds(prog *ops5.Program, store *RegionStore, sp *taskSpec) ([]ops5.Seed, error) {
	ss := newSeedSet(prog, store, 1+len(sp.regions))
	task := ss.row("rtf-task", "batch", "status")
	region := ss.row("region", "id", "batch", "area", "elong", "compact", "intensity", "texture", "status")
	batch := symtab.Int(int64(sp.batchID))
	ss.add(task, batch, symActive)
	for _, r := range sp.regions {
		area, elong, compact, intensity, texture := store.MeasurementsOf(r)
		ss.add(region, symtab.Int(int64(r.ID)), batch,
			symtab.Float(area), symtab.Float(elong), symtab.Float(compact),
			symtab.Float(intensity), symtab.Float(texture), symMeasured)
	}
	return ss.done()
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

// ExtractFragments collects the fragment hypotheses produced by RTF
// task results, ordered by fragment ID.
func ExtractFragments(results []*tlp.Result) []*Fragment {
	var frags []*Fragment
	for _, r := range results {
		if r == nil || r.Err != nil {
			continue
		}
		for _, w := range r.WMEs("fragment") {
			frags = append(frags, &Fragment{
				ID:       int(w.Get("id").IntVal()),
				RegionID: int(w.Get("region").IntVal()),
				Type:     scene.Kind(w.Get("type").SymVal()),
				Conf:     int(w.Get("conf").IntVal()),
			})
		}
	}
	sort.Slice(frags, func(i, j int) bool { return frags[i].ID < frags[j].ID })
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

// lccCheck is one constraint's partner set within a unit.
type lccCheck struct {
	c        Constraint
	partners []*Fragment
}

// partnerQuery returns the LCC partner search over one fragment pool:
// a session's persistent grid when given one, else a transient grid
// built here once — or, for a pool too small to amortize one or a
// reference store, NearbyFragments' scan. The grid
// orders candidates by fragment ID and the scan by pool position, so
// all must be sorted by ascending ID for the two to agree: every pool
// a run hands over is (ExtractFragments sorts; reEntryFragments
// appends IDs above the maximum).
func partnerQuery(store *RegionStore, all []*Fragment, grid *liveGrid) func(*Fragment, Constraint) []*Fragment {
	if grid == nil {
		grid = newLiveGrid(store, all)
	}
	if grid == nil {
		return func(f *Fragment, c Constraint) []*Fragment {
			return NearbyFragments(store, f, c.Object, all, c.Radius)
		}
	}
	return func(f *Fragment, c Constraint) []*Fragment { return grid.query(f, c.Object, c.Radius) }
}

// unitsWith enumerates the work units of a decomposition level: focals
// are the objects to check, query (see partnerQuery) finds each
// constraint's candidate partners.
func unitsWith(kb *KB, focals []*Fragment, level Level, query func(*Fragment, Constraint) []*Fragment) []lccUnit {
	var units []lccUnit
	for _, f := range focals {
		cons := kb.ConstraintsFor(f.Type)
		if len(cons) == 0 {
			continue
		}
		switch level {
		case Level3, Level4:
			u := lccUnit{focal: f, cid: "all", checks: make([]lccCheck, 0, len(cons))}
			for _, c := range cons {
				ps := query(f, c)
				u.checks = append(u.checks, lccCheck{c, ps})
				u.expected += len(ps)
			}
			sort.Slice(u.checks, func(i, j int) bool { return u.checks[i].c.ID < u.checks[j].c.ID })
			units = append(units, u)
		case Level2:
			for _, c := range cons {
				ps := query(f, c)
				units = append(units, lccUnit{focal: f, cid: c.ID, checks: []lccCheck{{c, ps}}, expected: len(ps)})
			}
		case Level1:
			for _, c := range cons {
				for _, p := range query(f, c) {
					units = append(units, lccUnit{focal: f, cid: c.ID, checks: []lccCheck{{c, []*Fragment{p}}}, expected: 1})
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
func lccSeeds(prog *ops5.Program, store *RegionStore, sp *taskSpec) ([]ops5.Seed, error) {
	rows := 0
	for _, u := range sp.units {
		rows += 3 + 2*u.expected
	}
	ss := newSeedSet(prog, store, rows)
	scope := ss.row("scope", "object", "constraint", "partner")
	support := ss.row("support", "object", "count", "checked")
	task := ss.row("lcc-task", "object", "class", "cid", "expected", "status")
	seen := map[int]bool{}
	addFrag := func(f *Fragment) {
		if !seen[f.ID] {
			seen[f.ID] = true
			ss.addFragment(f)
		}
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
	return ss.done()
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
	units := unitsWith(kb, frags, level, partnerQuery(store, frags, nil))
	return newTasks(prog, store, lccUnitSpecs(store.Scene().Name, units, level, false), capture)
}

// lccUnitSpecs converts LCC work units to task specs with stable keys:
// Level 4 by object class, Level 3 by focal fragment, Level 2 by
// (focal, constraint), Level 1 by (focal, constraint, partner) — never
// by queue position, so a task keeps its identity when the queue
// around it changes. The FA→LCC re-entry re-checks only the newly
// predicted fragments; their IDs depend on the fragment pool, so those
// tasks key under a distinct "lccr" namespace, and they continue the
// LCC phase over fragments the main pass already shipped: marked, so
// the cluster runtime spawns them on the chunk-resident worker.
func lccUnitSpecs(name string, units []lccUnit, level Level, reentry bool) []taskSpec {
	prefix := "lcc"
	if reentry {
		prefix = "lccr"
	}
	if level == Level4 {
		// One task per object class. The scope WMEs keep each focal
		// object's checks identical to its Level-3 task even though the
		// class's objects share one working memory.
		byClass := map[scene.Kind][]lccUnit{}
		for _, u := range units {
			byClass[u.focal.Type] = append(byClass[u.focal.Type], u)
		}
		var classes []scene.Kind
		for k := range byClass {
			classes = append(classes, k)
		}
		sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
		specs := make([]taskSpec, 0, len(classes))
		for _, k := range classes {
			group := byClass[k]
			est := 0
			for _, u := range group {
				est += u.expected
			}
			specs = append(specs, taskSpec{
				key:       fmt.Sprintf("%s4-%s-%s", prefix, name, k),
				label:     fmt.Sprintf("LCC L4 class %s (%d objects)", k, len(group)),
				group:     string(k),
				est:       float64(est),
				mem:       taskMemEst(2*est + 3*len(group)),
				phase:     "lcc",
				continues: reentry,
				units:     group,
			})
		}
		return specs
	}
	specs := make([]taskSpec, 0, len(units))
	for _, u := range units {
		key := fmt.Sprintf("%s%d-%s-o%d", prefix, level, name, u.focal.ID)
		switch level {
		case Level2:
			key += "-" + u.cid
		case Level1:
			key += fmt.Sprintf("-%s-p%d", u.cid, u.checks[0].partners[0].ID)
		}
		specs = append(specs, taskSpec{
			key:       key,
			label:     fmt.Sprintf("LCC L%d object %d %s (%d checks)", level, u.focal.ID, u.cid, u.expected),
			group:     string(u.focal.Type),
			est:       float64(u.expected),
			mem:       taskMemEst(2*u.expected + 3),
			phase:     "lcc",
			continues: reentry,
			units:     []lccUnit{u},
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

// ExtractLCC collects the consistency pairs and per-object outcomes
// from LCC task results.
func ExtractLCC(results []*tlp.Result) ([]ConsistentPair, []LCCOutcome) {
	var pairs []ConsistentPair
	var outs []LCCOutcome
	for _, r := range results {
		if r == nil || r.Err != nil {
			continue
		}
		for _, w := range r.WMEs("check") {
			if w.Get("result").SymVal() == "t" {
				pairs = append(pairs, ConsistentPair{
					Object:   int(w.Get("object").IntVal()),
					Partner:  int(w.Get("partner").IntVal()),
					Relation: w.Get("relation").SymVal(),
				})
			}
		}
		for _, w := range r.WMEs("lcc-result") {
			outs = append(outs, LCCOutcome{
				Object:  int(w.Get("object").IntVal()),
				Support: int(w.Get("support").IntVal()),
				Checked: int(w.Get("checked").IntVal()),
				Status:  w.Get("status").SymVal(),
			})
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Object != pairs[j].Object {
			return pairs[i].Object < pairs[j].Object
		}
		return pairs[i].Partner < pairs[j].Partner
	})
	sort.Slice(outs, func(i, j int) bool { return outs[i].Object < outs[j].Object })
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
// consistent seed fragment), keyed by the seed fragment's ID.
func faSpecs(kb *KB, name string, frags []*Fragment, pairs []ConsistentPair, outcomes []LCCOutcome) []taskSpec {
	byID := map[int]*Fragment{}
	for _, f := range frags {
		byID[f.ID] = f
	}
	consistent := map[int]bool{}
	for _, o := range outcomes {
		if o.Status == "consistent" {
			consistent[o.Object] = true
		}
	}
	pairsByObject := map[int][]ConsistentPair{}
	for _, p := range pairs {
		pairsByObject[p.Object] = append(pairsByObject[p.Object], p)
	}

	var specs []taskSpec
	for _, spec := range kb.FAs {
		memberKinds := map[scene.Kind]bool{}
		for _, m := range spec.Members {
			memberKinds[m] = true
		}
		for _, f := range frags {
			if f.Type != spec.Seed || !consistent[f.ID] {
				continue
			}
			// Collect the consistent member partners and the expected
			// member count (distinct partners of member classes).
			var members []*Fragment
			var memberPairs []ConsistentPair
			seen := map[int]bool{}
			for _, p := range pairsByObject[f.ID] {
				pf := byID[p.Partner]
				if pf == nil || !memberKinds[pf.Type] {
					continue
				}
				memberPairs = append(memberPairs, p)
				if !seen[pf.ID] {
					seen[pf.ID] = true
					members = append(members, pf)
				}
			}
			specs = append(specs, taskSpec{
				key:     fmt.Sprintf("fa-%s-%s-%d", name, spec.Type, f.ID),
				label:   fmt.Sprintf("FA %s seed %d (%d members)", spec.Type, f.ID, len(members)),
				group:   "fa-" + string(spec.Type),
				est:     float64(len(members) + 1),
				mem:     taskMemEst(len(members) + len(memberPairs) + 2),
				phase:   "fa",
				seed:    f,
				faType:  spec.Type,
				members: members,
				pairs:   memberPairs,
			})
		}
	}
	return specs
}

// faSeeds assembles one FA task's seed working memory: the seed
// fragment, its member fragments, the consistency rows supporting the
// aggregation, and the task control row, in assertion order.
func faSeeds(prog *ops5.Program, store *RegionStore, sp *taskSpec) ([]ops5.Seed, error) {
	ss := newSeedSet(prog, store, 2+len(sp.members)+len(sp.pairs))
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
	return ss.done()
}

// faAnswers: every fa-predict-* rule calls fa-predict-area on the seed
// fragment's region (the kind argument is not read), so one answer —
// the candidate count and cost — covers them all.
func faAnswers(st *RegionStore, sp *taskSpec, sig *signer) {
	n, cost, _ := st.PredictArea(sp.seed.RegionID)
	sig.answer(n, cost)
}

// ExtractFA collects the closed functional areas and predictions.
func ExtractFA(results []*tlp.Result) ([]FunctionalArea, []Prediction) {
	var fas []FunctionalArea
	var preds []Prediction
	for _, r := range results {
		if r == nil || r.Err != nil {
			continue
		}
		for _, w := range r.WMEs("fa") {
			fas = append(fas, FunctionalArea{
				Seed:     int(w.Get("seed").IntVal()),
				Type:     w.Get("fatype").SymVal(),
				NMembers: int(w.Get("nmembers").IntVal()),
				Status:   w.Get("status").SymVal(),
			})
		}
		for _, w := range r.WMEs("prediction") {
			preds = append(preds, Prediction{
				FA:         int(w.Get("fa").IntVal()),
				Kind:       scene.Kind(w.Get("kind").SymVal()),
				Candidates: int(w.Get("candidates").IntVal()),
			})
		}
	}
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
	return newTask(prog, store, &sp, false, nil)
}

// modelSpec describes the MODEL task.
func modelSpec(name string, frags []*Fragment, fas []FunctionalArea) taskSpec {
	return taskSpec{
		key:   fmt.Sprintf("model-%s", name),
		label: fmt.Sprintf("MODEL (%d functional areas)", len(fas)),
		group: "model",
		est:   float64(len(fas) + 1),
		mem:   taskMemEst(2*len(fas) + 1),
		phase: "model",
		frags: frags,
		fas:   fas,
	}
}

// modelSeeds assembles the MODEL task's seed working memory: per
// closed functional area its (deduplicated) seed fragment and fa row,
// then the task control row, in assertion order.
func modelSeeds(prog *ops5.Program, store *RegionStore, sp *taskSpec) ([]ops5.Seed, error) {
	byID := map[int]*Fragment{}
	for _, f := range sp.frags {
		byID[f.ID] = f
	}
	ss := newSeedSet(prog, store, 1+2*len(sp.fas))
	faRow := ss.row("fa", "id", "seed", "fatype", "nmembers", "status")
	task := ss.row("model-task", "status")
	seen := map[int]bool{}
	for _, fa := range sp.fas {
		if fa.Status != "closed" {
			continue
		}
		if f := byID[fa.Seed]; f != nil && !seen[f.ID] {
			seen[f.ID] = true
			ss.addFragment(f)
		}
		seed := symtab.Int(int64(fa.Seed))
		ss.add(faRow, seed, seed, sym(fa.Type), symtab.Int(int64(fa.NMembers)), symClosed)
	}
	ss.add(task, symActive)
	return ss.done()
}

// ExtractModel returns the final model from the MODEL task result.
func ExtractModel(results []*tlp.Result) (Model, bool) {
	for _, r := range results {
		if r == nil || r.Err != nil {
			continue
		}
		for _, w := range r.WMEs("model") {
			if w.Get("status").SymVal() == "final" {
				return Model{
					Score: int(w.Get("score").IntVal()),
					NFAs:  int(w.Get("nfas").IntVal()),
				}, true
			}
		}
	}
	return Model{}, false
}
