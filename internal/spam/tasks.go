package spam

import (
	"fmt"
	"sort"
	"sync/atomic"

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

// naiveMatch selects the unindexed reference matcher for every engine
// the package builds (see UseNaiveMatch).
var naiveMatch atomic.Bool

// UseNaiveMatch switches all subsequently built task engines between
// the default equality-indexed Rete matcher (false) and the unindexed
// reference matcher (true). The two are observably identical — the
// differential oracle proves byte-identical Counters and firing
// sequences on the full SPAM rule set — so the toggle exists for that
// oracle and for benchmarking the indexed matcher's wall-clock win.
// It is process-global because task builders capture engine
// construction in closures that run on worker pools.
func UseNaiveMatch(on bool) { naiveMatch.Store(on) }

// freshCompile forces every engine the package builds to bypass the
// Program's compiled-variant cache (see UseFreshCompile).
var freshCompile atomic.Bool

// UseFreshCompile switches all subsequently built task engines between
// template instantiation from the Program's shared compile cache (the
// default) and a private fresh compilation per engine. The two are
// observably identical — the full-SPAM differential oracle proves
// byte-identical phase results, firings and instruction counts — so
// the toggle exists for that oracle; fresh compilation is strictly
// slower. Process-global for the same reason as UseNaiveMatch.
func UseFreshCompile(on bool) { freshCompile.Store(on) }

// unbatchedSeed forces every engine the package builds onto the
// per-WME seed-assertion path (see UseUnbatchedSeed).
var unbatchedSeed atomic.Bool

// UseUnbatchedSeed switches all subsequently built task engines between
// batched seed distribution with memoized alpha routing (the default)
// and the reference per-WME Assert path. The two are observably
// identical — the full-SPAM differential oracle proves byte-identical
// phase results, firings and instruction counts — so the toggle exists
// for that oracle and for benchmarking the batched path's wall-clock
// win. Process-global for the same reason as UseNaiveMatch.
func UseUnbatchedSeed(on bool) { unbatchedSeed.Store(on) }

// uncachedGeo selects the reference geometry path everywhere the
// package would otherwise use cached or indexed spatial state (see
// UseUncachedGeo).
var uncachedGeo atomic.Bool

// UseUncachedGeo switches subsequent geometry work between the default
// fast path — the RegionStore's spatial-predicate memo, derived
// per-region geometry in relation evaluation, and the uniform-grid
// partner index — and the reference path that re-evaluates every
// predicate per call with per-call Polygon methods and scans all
// fragments per partner search. The two are observably identical —
// the full-SPAM differential oracle proves byte-identical phase
// results, firings, instruction counts and consistency pairs — so the
// toggle exists for that oracle and for benchmarking. Combine with
// geom.UseExactOnly to reproduce the pre-fast-path kernels exactly.
// Process-global for the same reason as UseNaiveMatch.
func UseUncachedGeo(on bool) { uncachedGeo.Store(on) }

// engineOpts builds the engine options for a task.
func engineOpts(capture bool) []ops5.Option {
	var opts []ops5.Option
	if capture {
		opts = append(opts, ops5.WithCapture())
	}
	if naiveMatch.Load() {
		opts = append(opts, ops5.WithNaiveMatch())
	}
	if freshCompile.Load() {
		opts = append(opts, ops5.WithFreshCompile())
	}
	if unbatchedSeed.Load() {
		opts = append(opts, ops5.WithPerWMEAssert())
	}
	return opts
}

// loadEngine builds one task's engine: instantiate the phase program,
// register the store's externals, assert the seed batch. With a
// worker's match arena s the engine borrows its match state from it
// and the worker settles it when the task ends; with s nil (a
// prebuild, a serial replay) the engine owns its memory. Every engine
// the package builds — a one-shot task's, a session task's first run
// or re-run, a cluster worker's rebuild of a shipped task — comes from
// here, so they are the same engine by construction.
func loadEngine(prog *ops5.Program, store *RegionStore, seeds []ops5.Seed, capture bool, s *ops5.Scratch) (*ops5.Engine, error) {
	opts := engineOpts(capture)
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
// worker's own (identically generated) dataset through loadEngine.
func (d *Dataset) WireBuild(spec *tlp.WireSpec, capture bool) (func(s *ops5.Scratch) (*ops5.Engine, error), error) {
	def, ok := phaseDefs[spec.Phase]
	if !ok {
		return nil, fmt.Errorf("spam: wire task phase %q unknown (want rtf, lcc, fa or model)", spec.Phase)
	}
	prog, seeds := def.prog(d.Progs), spec.Seeds
	return func(s *ops5.Scratch) (*ops5.Engine, error) {
		return loadEngine(prog, d.Store, seeds, capture, s)
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
// memory), how a spec's seed rows are assembled, and which regions'
// geometry the task's externals can read beyond those rows (nil: none;
// only a session signature asks).
var phaseDefs = map[string]struct {
	prog    func(*Programs) *ops5.Program
	extract []string
	seeds   func(*ops5.Program, *RegionStore, *taskSpec) ([]ops5.Seed, error)
	regions func(*RegionStore, *taskSpec) []int
}{
	"rtf":   {func(p *Programs) *ops5.Program { return p.RTF }, []string{"fragment"}, rtfSeeds, rtfRegions},
	"lcc":   {func(p *Programs) *ops5.Program { return p.LCC }, []string{"check", "lcc-result"}, lccSeeds, lccRegions},
	"fa":    {func(p *Programs) *ops5.Program { return p.FA }, []string{"fa", "prediction"}, faSeeds, faRegions},
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
		Build:     func() (*ops5.Engine, error) { return build(nil) },
		BuildWith: build,
		Wire: func() (*tlp.WireSpec, error) {
			seeds, err := load()
			if err != nil {
				return nil, err
			}
			return &tlp.WireSpec{Dataset: store.Scene().Name, Phase: sp.phase, Seeds: seeds, Extract: def.extract}, nil
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
// the builder hands the whole set to Engine.AssertBatch at once.
// Fragment rows — the WMEs that recur across overlapping tasks — go
// through the RegionStore's shared-seed cache, so a fragment's value
// vector and routing digest are computed once per scene, not once per
// task.
type seedSet struct {
	prog  *ops5.Program
	store *RegionStore
	seeds []ops5.Seed
}

// add appends one plain (task-local) seed row.
func (ss *seedSet) add(class string, sets map[string]symtab.Value) error {
	sc, err := ss.prog.SeedClass(class)
	if err != nil {
		return err
	}
	s, err := sc.Seed(sets)
	if err != nil {
		return err
	}
	ss.seeds = append(ss.seeds, s)
	return nil
}

// addFragment appends a fragment hypothesis row, shared through the
// scene's seed cache.
func (ss *seedSet) addFragment(f *Fragment) error {
	sc, err := ss.prog.SeedClass("fragment")
	if err != nil {
		return err
	}
	s, err := ss.store.FragmentSeed(sc, f)
	if err != nil {
		return err
	}
	ss.seeds = append(ss.seeds, s)
	return nil
}

// ---------------------------------------------------------------------------
// RTF phase tasks

// BuildRTFTasks decomposes the RTF phase: each task classifies one
// batch of regions. The decomposition yields the paper's ~60-100 tasks
// per dataset at roughly Level-2 granularity.
func BuildRTFTasks(kb *KB, store *RegionStore, prog *ops5.Program, batchSize int, capture bool) []*tlp.Task {
	return newTasks(prog, store, rtfSpecs(store, batchSize), capture)
}

// rtfSpecs enumerates the RTF tasks over the current scene by position
// batching (regions[start:end], batchID = start/batchSize; default 3).
// RTF classification depends on batch composition — rtf-align boosts
// fragment pairs within one task's working memory — so a session must
// batch exactly as a from-scratch run does, not merely stably. The
// price is that a removal shifts every later region's batch, re-running
// those batches; RTF is the cheapest phase, so the churn-proportionality
// of the whole update survives.
func rtfSpecs(store *RegionStore, batchSize int) []taskSpec {
	if batchSize < 1 {
		batchSize = 3
	}
	regions, name := store.Scene().Regions, store.Scene().Name
	var specs []taskSpec
	for start := 0; start < len(regions); start += batchSize {
		batch := regions[start:min(start+batchSize, len(regions))]
		batchID := start / batchSize
		specs = append(specs, taskSpec{
			key:     fmt.Sprintf("rtf-%s-%d", name, batchID),
			label:   fmt.Sprintf("RTF batch %d (%d regions)", batchID, len(batch)),
			group:   "rtf",
			est:     float64(len(batch)),
			mem:     taskMemEst(1 + 2*len(batch)),
			phase:   "rtf",
			batchID: batchID,
			regions: batch,
		})
	}
	return specs
}

// rtfSeeds assembles one RTF task's seed working memory — the task
// control row plus a measured-region row per batch member, in
// assertion order.
func rtfSeeds(prog *ops5.Program, store *RegionStore, sp *taskSpec) ([]ops5.Seed, error) {
	ss := seedSet{prog: prog, store: store}
	batch := symtab.Int(int64(sp.batchID))
	if err := ss.add("rtf-task", map[string]symtab.Value{
		"batch": batch, "status": sym("active"),
	}); err != nil {
		return nil, err
	}
	for _, r := range sp.regions {
		area, elong, compact, intensity, texture := store.MeasurementsOf(r)
		if err := ss.add("region", map[string]symtab.Value{
			"id":        symtab.Int(int64(r.ID)),
			"batch":     batch,
			"area":      symtab.Float(area),
			"elong":     symtab.Float(elong),
			"compact":   symtab.Float(compact),
			"intensity": symtab.Float(intensity),
			"texture":   symtab.Float(texture),
			"status":    sym("measured"),
		}); err != nil {
			return nil, err
		}
	}
	return ss.seeds, nil
}

// rtfRegions is the batch itself: the alignment calls read region
// geometry that can move while the quantized measurement rows stay
// identical.
func rtfRegions(_ *RegionStore, sp *taskSpec) []int {
	ids := make([]int, len(sp.regions))
	for i, r := range sp.regions {
		ids[i] = r.ID
	}
	return ids
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

// lccUnit is one (focal, constraint-subset) work assignment.
type lccUnit struct {
	focal    *Fragment
	cid      string // "" means all constraints of the class
	partners map[string][]*Fragment
	expected int
}

// partnerQuery returns the LCC partner search over one fragment pool:
// a session's persistent grid when given one, else a transient grid
// index built here once — or, for a pool too small to amortize one,
// NearbyFragments' scan. Every path returns the same candidates in the
// same ascending-ID order.
func partnerQuery(store *RegionStore, all []*Fragment, live *liveGrid) func(*Fragment, Constraint) []*Fragment {
	if live != nil {
		return func(f *Fragment, c Constraint) []*Fragment { return live.query(f, c.Object, c.Radius) }
	}
	ix := buildFragIndex(store, all)
	return func(f *Fragment, c Constraint) []*Fragment {
		if ix != nil {
			return ix.query(f, c.Object, c.Radius)
		}
		return NearbyFragments(store, f, c.Object, all, c.Radius)
	}
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
			u := lccUnit{focal: f, cid: "all", partners: map[string][]*Fragment{}}
			for _, c := range cons {
				ps := query(f, c)
				u.partners[c.ID] = ps
				u.expected += len(ps)
			}
			units = append(units, u)
		case Level2:
			for _, c := range cons {
				ps := query(f, c)
				units = append(units, lccUnit{
					focal: f, cid: c.ID,
					partners: map[string][]*Fragment{c.ID: ps},
					expected: len(ps),
				})
			}
		case Level1:
			for _, c := range cons {
				for _, p := range query(f, c) {
					units = append(units, lccUnit{
						focal: f, cid: c.ID,
						partners: map[string][]*Fragment{c.ID: {p}},
						expected: 1,
					})
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
	ss := seedSet{prog: prog, store: store}
	seen := map[int]bool{}
	addFrag := func(f *Fragment) error {
		if seen[f.ID] {
			return nil
		}
		seen[f.ID] = true
		return ss.addFragment(f)
	}
	for _, u := range sp.units {
		if err := addFrag(u.focal); err != nil {
			return nil, err
		}
		// Deterministic constraint order: the scope rows' assertion order
		// must be stable run-to-run so the session's seed-signature diff
		// never sees a spurious change (map iteration order is not).
		cids := make([]string, 0, len(u.partners))
		for cid := range u.partners {
			cids = append(cids, cid)
		}
		sort.Strings(cids)
		for _, cid := range cids {
			for _, p := range u.partners[cid] {
				if err := addFrag(p); err != nil {
					return nil, err
				}
				// The scope WME makes the decomposition exact: a check
				// runs iff the control process put its (object,
				// constraint, partner) triple into the task's working
				// memory, so every level computes the same checks.
				if err := ss.add("scope", map[string]symtab.Value{
					"object":     symtab.Int(int64(u.focal.ID)),
					"constraint": sym(cid),
					"partner":    symtab.Int(int64(p.ID)),
				}); err != nil {
					return nil, err
				}
			}
		}
		if err := ss.add("support", map[string]symtab.Value{
			"object": symtab.Int(int64(u.focal.ID)),
			"count":  symtab.Int(0), "checked": symtab.Int(0),
		}); err != nil {
			return nil, err
		}
		if err := ss.add("lcc-task", map[string]symtab.Value{
			"object":   symtab.Int(int64(u.focal.ID)),
			"class":    sym(string(u.focal.Type)),
			"cid":      sym(u.cid),
			"expected": symtab.Int(int64(u.expected)),
			"status":   sym("active"),
		}); err != nil {
			return nil, err
		}
	}
	return ss.seeds, nil
}

// lccRegions collects the regions an LCC task's geo-test calls can
// read: the focal fragment's region and every partner's region.
func lccRegions(_ *RegionStore, sp *taskSpec) []int {
	var ids []int
	for _, u := range sp.units {
		ids = append(ids, u.focal.RegionID)
		for _, ps := range u.partners {
			for _, p := range ps {
				ids = append(ids, p.RegionID)
			}
		}
	}
	return ids
}

// BuildLCCTasks decomposes the LCC phase at the chosen level. The
// same generated rule set serves every level: the task's scope is its
// working memory.
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
			key += fmt.Sprintf("-%s-p%d", u.cid, u.partners[u.cid][0].ID)
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
	pairs []ConsistentPair, outcomes []LCCOutcome, capture bool) []*tlp.Task {

	return newTasks(prog, store, faSpecs(kb, store.Scene().Name, frags, pairs, outcomes), capture)
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
	ss := seedSet{prog: prog, store: store}
	if err := ss.addFragment(sp.seed); err != nil {
		return nil, err
	}
	for _, m := range sp.members {
		if err := ss.addFragment(m); err != nil {
			return nil, err
		}
	}
	for _, p := range sp.pairs {
		if err := ss.add("consistency", map[string]symtab.Value{
			"object":   symtab.Int(int64(p.Object)),
			"partner":  symtab.Int(int64(p.Partner)),
			"relation": sym(p.Relation),
			"result":   sym("t"),
		}); err != nil {
			return nil, err
		}
	}
	if err := ss.add("fa-task", map[string]symtab.Value{
		"seed":     symtab.Int(int64(sp.seed.ID)),
		"fatype":   sym(sp.faType),
		"expected": symtab.Int(int64(len(sp.pairs))),
		"status":   sym("active"),
	}); err != nil {
		return nil, err
	}
	return ss.seeds, nil
}

// faRegions collects the regions an FA task's fa-predict-area scan can
// read: the seed region plus every region whose bbox intersects the
// seed bbox expanded by faPredictRadius — the external's exact
// candidate-set determination, so a signature over them changes iff a
// prediction's candidate count could.
func faRegions(st *RegionStore, sp *taskSpec) []int {
	ids := []int{sp.seed.RegionID}
	d := st.Derived(sp.seed.RegionID)
	if d == nil {
		return ids
	}
	bb := d.BBox.Expand(faPredictRadius)
	for _, other := range st.Scene().Regions {
		if other.ID == sp.seed.RegionID {
			continue
		}
		if od := st.Derived(other.ID); od != nil && bb.Intersects(od.BBox) {
			ids = append(ids, other.ID)
		}
	}
	return ids
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

// BuildModelTask builds the single MODEL-phase task over the closed
// functional areas.
func BuildModelTask(kb *KB, store *RegionStore, prog *ops5.Program,
	frags []*Fragment, fas []FunctionalArea, capture bool) *tlp.Task {

	sp := modelSpec(store.Scene().Name, frags, fas)
	return newTask(prog, store, &sp, capture, nil)
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
	ss := seedSet{prog: prog, store: store}
	seen := map[int]bool{}
	for _, fa := range sp.fas {
		if fa.Status != "closed" {
			continue
		}
		if f := byID[fa.Seed]; f != nil && !seen[f.ID] {
			seen[f.ID] = true
			if err := ss.addFragment(f); err != nil {
				return nil, err
			}
		}
		if err := ss.add("fa", map[string]symtab.Value{
			"id":       symtab.Int(int64(fa.Seed)),
			"seed":     symtab.Int(int64(fa.Seed)),
			"fatype":   sym(fa.Type),
			"nmembers": symtab.Int(int64(fa.NMembers)),
			"status":   sym("closed"),
		}); err != nil {
			return nil, err
		}
	}
	if err := ss.add("model-task", map[string]symtab.Value{
		"status": sym("active"),
	}); err != nil {
		return nil, err
	}
	return ss.seeds, nil
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
