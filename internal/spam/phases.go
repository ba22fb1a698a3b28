package spam

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"spampsm/internal/scene"
	"spampsm/internal/stats"
	"spampsm/internal/tlp"
)

// LispFactor converts the optimized C/ParaOPS5 baseline's simulated
// time to the original Lisp implementation's time scale. The paper
// reports the port bought "approximately a 10-20 fold speed-up"; the
// Lisp-era Tables 1-3 are reproduced by applying this factor.
const LispFactor = 15.0

// Dataset bundles a scene with its knowledge base and compiled phase
// programs.
type Dataset struct {
	Name  string
	KB    *KB
	Scene *scene.Scene
	Store *RegionStore
	Progs *Programs

	// capture makes every engine an interpretation of the dataset builds
	// record its per-activation match forests. Only tests set it, on a
	// copy sharing the store (the exported task builders take capture as
	// an argument).
	capture bool
}

// NewDataset generates an airport dataset.
func NewDataset(p scene.Params) (*Dataset, error) {
	s := scene.Generate(p)
	return datasetFrom(s, AirportKB())
}

// NewSuburbanDataset generates a suburban dataset.
func NewSuburbanDataset(p scene.SuburbanParams) (*Dataset, error) {
	s := scene.GenerateSuburban(p)
	return datasetFrom(s, SuburbanKB())
}

func datasetFrom(s *scene.Scene, kb *KB) (*Dataset, error) {
	progs, err := BuildPrograms(kb)
	if err != nil {
		return nil, err
	}
	return NewDatasetWith(s, kb, progs), nil
}

// NewDatasetWith builds a dataset over an existing scene, knowledge
// base and already-compiled phase programs. Sharing one Programs
// across many datasets shares the programs' compiled Rete templates
// and per-variant caches: a long-running server pays rule compilation
// once per knowledge base, not once per scene or per request.
func NewDatasetWith(s *scene.Scene, kb *KB, progs *Programs) *Dataset {
	return &Dataset{
		Name:  s.Name,
		KB:    kb,
		Scene: s,
		Store: NewRegionStore(s),
		Progs: progs,
	}
}

// PhaseRun is the statistics of one interpretation phase.
type PhaseRun struct {
	Phase      string
	Tasks      int
	Firings    int
	RHSActions int
	Instr      float64 // total simulated instructions
	MatchInstr float64
	Hypotheses int
	Results    []*tlp.Result
	// Report is the phase's fault-handling accounting: attempts,
	// retries, quarantines. Clean phases have a clean report.
	Report *tlp.RunReport
	// Modeled memory (ops5.MemStats units): the largest single task's
	// peak footprint and the phase's total seed working memory.
	PeakTaskBytes float64
	SeedBytes     float64
}

// MatchFraction returns the phase's match fraction of total time.
func (p PhaseRun) MatchFraction() float64 {
	if p.Instr == 0 {
		return 0
	}
	return p.MatchInstr / p.Instr
}

// Completeness records how much of the decomposition's work survived
// into an interpretation. A clean run is Complete with zero failures;
// a degraded run (tasks exhausted their retries under
// InterpretOptions.Degraded) is still a valid interpretation — every
// hypothesis in it was produced by a successful task — but an
// explicitly partial one, assembled from the surviving tasks only.
type Completeness struct {
	Complete  bool `json:"complete"`
	Tasks     int  `json:"tasks"`     // tasks attempted across all phases
	Failed    int  `json:"failed"`    // quarantined / exhausted retries
	Cancelled int  `json:"cancelled"` // abandoned to context cancellation
	// FailedTasks lists the failed (non-cancelled) task IDs in queue
	// order, so a degraded result names exactly what is missing.
	FailedTasks []string `json:"failedTasks,omitempty"`
}

// Interpretation is the result of a full four-phase run.
type Interpretation struct {
	Dataset     *Dataset
	Phases      []PhaseRun // RTF, LCC, FA, MODEL
	Fragments   []*Fragment
	Pairs       []ConsistentPair
	Outcomes    []LCCOutcome
	FAs         []FunctionalArea
	Predictions []Prediction
	Model       Model
	ModelFound  bool
	// Completeness reports whether every task of every phase
	// contributed (see InterpretOptions.Degraded).
	Completeness Completeness
}

// Phase returns the named phase run (RTF/LCC/FA/MODEL), or nil.
func (in *Interpretation) Phase(name string) *PhaseRun {
	for i := range in.Phases {
		if in.Phases[i].Phase == name {
			return &in.Phases[i]
		}
	}
	return nil
}

// TotalFirings sums firings over all phases.
func (in *Interpretation) TotalFirings() int {
	n := 0
	for _, p := range in.Phases {
		n += p.Firings
	}
	return n
}

// TotalInstr sums simulated instructions over all phases.
func (in *Interpretation) TotalInstr() float64 {
	var t float64
	for _, p := range in.Phases {
		t += p.Instr
	}
	return t
}

// Recovery sums the phases' fault-handling accounting.
func (in *Interpretation) Recovery() stats.Recovery {
	var rec stats.Recovery
	for _, p := range in.Phases {
		if p.Report != nil {
			rec.Add(p.Report.Recovery())
		}
	}
	return rec
}

// Runner executes one phase's task queue. Outside tests it is a
// tlp.BoundQueue over a tlp.Pool: by default a private one, one per
// interpretation; on the serving path the server's, process-wide (or
// a cluster coordinator), so every concurrent request's tasks
// multiplex onto one worker set.
type Runner interface {
	RunTasks(ctx context.Context, tasks []*tlp.Task) ([]*tlp.Result, error)
}

// InterpretOptions configure a full run.
type InterpretOptions struct {
	Workers  int   // task processes for the real pool (default 1)
	Level    Level // LCC decomposition level (default Level3)
	RTFBatch int   // regions per RTF task (default 3)
	// ReEntry enables the FA→LCC re-entry of the paper: functional-area
	// predictions hypothesize fragments on unclassified regions, which
	// are then re-checked by the LCC rules.
	ReEntry bool

	// Runner, when non-nil, executes every phase's task queue instead
	// of a private pool — the serving path, where all requests share
	// the server's tlp.Pool. The runner then brings its own workers and
	// its own tlp.RunConfig: Workers and every option RunConfig reads
	// are not consulted here (a caller binding a queue converts them
	// once, with RunConfig).
	Runner Runner

	// Degraded switches the result assembler to partial-failure
	// tolerance: a phase with quarantined tasks no longer aborts the
	// interpretation; the phase's outputs are assembled from the
	// surviving tasks and the loss is recorded in
	// Interpretation.Completeness. Cancellation still aborts.
	Degraded bool

	// Fault tolerance (see docs/ROBUSTNESS.md). Zero values mean no
	// timeout and no retries.
	MaxRetries   int           // failed-task re-executions before quarantine
	TaskTimeout  time.Duration // per-attempt wall-clock deadline; 0 = none
	RetryBackoff time.Duration // delay before the first retry (doubles after)
	FiringBudget int           // per-task firing deadline; 0 = none

	// Sched orders every phase's task queue — fifo, largest or
	// postorder (see docs/PERFORMANCE.md). Per-task results are
	// byte-identical under every policy; only order and timing change.
	Sched tlp.QueuePolicy
}

// RunConfig is the one conversion from the options a user sets to how a
// queue executes them: what a bound queue — private pool, shared pool,
// cluster coordinator — is submitted under.
func (opt InterpretOptions) RunConfig() tlp.RunConfig {
	return tlp.RunConfig{
		Policy:       opt.Sched,
		FiringBudget: opt.FiringBudget,
		MaxRetries:   opt.MaxRetries,
		TaskTimeout:  opt.TaskTimeout,
		RetryBackoff: opt.RetryBackoff,
	}
}

// privateQueue is the Runner an interpretation — or a session, for its
// lifetime — runs on when its options bring none: a private pool bound
// to the options' RunConfig.
func privateQueue(opt InterpretOptions) tlp.BoundQueue {
	return tlp.BoundQueue{Queue: &tlp.Pool{Workers: opt.Workers}, Config: opt.RunConfig()}
}

// withDefaults fills the unset decomposition options.
func (opt InterpretOptions) withDefaults() InterpretOptions {
	if opt.Workers < 1 {
		opt.Workers = 1
	}
	if opt.Level == 0 {
		opt.Level = Level3
	}
	return opt
}

func phaseStats(name string, results []*tlp.Result, hypotheses int) PhaseRun {
	p := PhaseRun{Phase: name, Tasks: len(results), Hypotheses: hypotheses, Results: results,
		Report: tlp.Report(results)}
	for _, r := range results {
		if r == nil || r.Err != nil {
			continue
		}
		p.Firings += r.Stats.Firings
		p.RHSActions += r.Stats.RHSActions
		p.Instr += r.Stats.TotalInstr()
		p.MatchInstr += r.Stats.MatchInstr + r.Stats.InitInstr
		if r.Log != nil {
			if r.Log.Mem.PeakBytes > p.PeakTaskBytes {
				p.PeakTaskBytes = r.Log.Mem.PeakBytes
			}
			p.SeedBytes += r.Log.Mem.SeedBytes
		}
	}
	return p
}

// Interpret runs the full four-phase SPAM interpretation of the
// dataset: RTF → LCC → FA (with optional LCC re-entry) → MODEL.
func (d *Dataset) Interpret(opt InterpretOptions) (*Interpretation, error) {
	return d.InterpretContext(context.Background(), opt)
}

// InterpretContext is Interpret with request-scoped control: the
// context cancels in-flight tasks cooperatively (a cancelled
// interpretation aborts between — and inside — phases), and the
// options' Runner/Degraded fields select the serving behaviors. With a
// background context, no Runner and Degraded off, it is byte-for-byte
// the classic Interpret.
func (d *Dataset) InterpretContext(ctx context.Context, opt InterpretOptions) (*Interpretation, error) {
	return d.interpret(ctx, opt.withDefaults(), nil)
}

// interpret is the four-phase driver: RTF → LCC → FA (with optional
// LCC re-entry) → MODEL, each phase enumerated as task specs, run as
// one queue, settled and extracted, and every engine is released once
// its outputs are read. Retention is a property of the caller. A
// one-shot interpretation (s nil) runs every spec on the dataset
// itself. A Session (s non-nil, d its private dataset) diffs each
// spec's signature against its cache, runs only what changed — as
// fresh tasks — and keeps each result with its output. Both find LCC
// partners the same way: a grid built over each pool (partnerQuery).
func (d *Dataset) interpret(ctx context.Context, opt InterpretOptions, s *Session) (*Interpretation, error) {
	in := &Interpretation{Dataset: d}
	if opt.Level < Level1 || opt.Level > Level4 {
		// unitsWith has no units for such a level: LCC and FA would run
		// nothing and the run would report an empty interpretation.
		return in, fmt.Errorf("spam: undefined LCC decomposition level %d (want 1 to 4)", opt.Level)
	}
	runner := opt.Runner
	if runner == nil {
		runner = privateQueue(opt)
	}
	// phase runs and settles one queue. A degraded upstream phase may
	// leave a later phase with no tasks at all; that is an empty phase,
	// not an error, and runs nothing.
	phase := func(name string, specs []taskSpec) ([]*tlp.Result, error) {
		if len(specs) == 0 {
			return nil, nil
		}
		var results []*tlp.Result
		var err error
		if s != nil {
			results, err = s.runSpecs(ctx, runner, specs)
		} else {
			prog := phaseDefs[specs[0].phase].prog(d.Progs)
			results, err = runner.RunTasks(ctx, newTasks(prog, d.Store, specs, d.capture))
		}
		if err != nil {
			return nil, fmt.Errorf("spam: %s: %w", name, err)
		}
		if err := settlePhase(ctx, in, opt.Degraded, name, results); err != nil {
			stat, _, _ := strings.Cut(name, " ")
			in.Phases = append(in.Phases, phaseStats(stat, results, 0))
			return nil, err
		}
		return results, nil
	}
	// extracted frees a phase's engines and task outputs once they are
	// merged (the phase statistics only need the stats and cost logs). A
	// session's results are its cache: they arrive reduced to their
	// outputs (runSpecs) and stay so.
	extracted := func(results []*tlp.Result) {
		for _, r := range results {
			if r != nil && s == nil {
				r.Engine, r.Output = nil, nil
			}
		}
	}
	name := d.Store.Scene().Name

	// Phase 1: RTF.
	rtf, err := phase("RTF", rtfSpecs(d.Store, opt.RTFBatch))
	if err != nil {
		return in, err
	}
	in.Fragments = ExtractFragments(rtf)
	extracted(rtf)
	in.Phases = append(in.Phases, phaseStats("RTF", rtf, len(in.Fragments)))

	// Phase 2: LCC.
	units := unitsWith(d.KB, in.Fragments, opt.Level, partnerQuery(d.Store, in.Fragments))
	lcc, err := phase("LCC", lccUnitSpecs(name, units, opt.Level, false))
	if err != nil {
		return in, err
	}
	in.Pairs, in.Outcomes = ExtractLCC(lcc)
	extracted(lcc)

	// Phase 3: FA.
	fa, err := phase("FA", faSpecs(d.KB, name, in.Fragments, in.Pairs, in.Outcomes))
	if err != nil {
		return in, err
	}
	in.FAs, in.Predictions = ExtractFA(fa)
	extracted(fa)

	// FA→LCC re-entry: predictions hypothesize fragments on regions
	// that RTF left unclassified; LCC re-checks only those, against the
	// full fragment pool. Their cost is attributed to the LCC phase,
	// where the paper accounts it.
	if opt.ReEntry && len(in.Predictions) > 0 {
		if extra := d.reEntryFragments(in); len(extra) > 0 {
			pool2 := slices.Concat(in.Fragments, extra) // exact-sized: the interpretation keeps it
			units := unitsWith(d.KB, extra, opt.Level, partnerQuery(d.Store, pool2))
			if specs := lccUnitSpecs(name, units, opt.Level, true); len(specs) > 0 {
				re, err := phase("LCC re-entry", specs)
				if err != nil {
					return in, err
				}
				// Behind the first pass's, each pass sorted on its own.
				in.Pairs, in.Outcomes = appendLCC(in.Pairs, in.Outcomes, re)
				extracted(re)
				in.Fragments = pool2
				lcc = append(lcc, re...)
			}
		}
	}
	in.Phases = append(in.Phases, phaseStats("LCC", lcc, countConsistent(in.Outcomes)))
	in.Phases = append(in.Phases, phaseStats("FA", fa, countClosed(in.FAs)))

	// Phase 4: MODEL. A degraded run whose single MODEL task failed
	// still returns: the extractor sees no model WMEs and ModelFound
	// stays false.
	model, err := phase("MODEL", []taskSpec{modelSpec(name, in.Fragments, in.FAs)})
	if err != nil {
		return in, err
	}
	in.Model, in.ModelFound = ExtractModel(model)
	extracted(model)
	nModels := 0
	if in.ModelFound {
		nModels = 1
	}
	in.Phases = append(in.Phases, phaseStats("MODEL", model, nModels))
	in.Completeness.Complete = in.Completeness.Failed == 0 && in.Completeness.Cancelled == 0
	return in, nil
}

// settlePhase settles one phase's results into the interpretation's
// completeness accounting and decides whether the run continues:
// cancellation always aborts; quarantined tasks abort unless the run
// is degraded, in which case the phase's surviving outputs stand and
// the loss is recorded.
func settlePhase(ctx context.Context, in *Interpretation, degraded bool, name string, results []*tlp.Result) error {
	for _, r := range results {
		if r == nil {
			continue
		}
		in.Completeness.Tasks++
		if r.Err == nil {
			continue
		}
		if r.Cancelled {
			in.Completeness.Cancelled++
		} else {
			in.Completeness.Failed++
			in.Completeness.FailedTasks = append(in.Completeness.FailedTasks, r.TaskID)
		}
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("spam: %s: interpretation cancelled: %w", name, err)
	}
	if degraded {
		return nil
	}
	return phaseError(name, results)
}

// phaseError aggregates every failed (quarantined) task of a phase
// into one error, in queue order. A phase with retried-but-recovered
// tasks is not an error — recovery is the point.
func phaseError(name string, results []*tlp.Result) error {
	errs := tlp.Errors(results)
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("spam: %s: %d of %d tasks failed: %w",
		name, len(errs), len(results), errors.Join(errs...))
}

// reEntryFragments hypothesizes fragments for FA predictions over
// regions that have no interpretation yet. in.Fragments is the RTF
// pool, sorted by fragment ID: a prediction's seed is found in it by
// binary search.
func (d *Dataset) reEntryFragments(in *Interpretation) []*Fragment {
	maxID, taken := 0, make([]int, len(in.Fragments)) // taken: regions with a fragment, sorted
	for i, f := range in.Fragments {
		taken[i], maxID = f.RegionID, max(maxID, f.ID)
	}
	slices.Sort(taken)
	var out []*Fragment
	for _, p := range in.Predictions {
		seed := indexOfID(in.Fragments, p.FA)
		if seed < 0 || d.Store.Get(in.Fragments[seed].RegionID) == nil {
			continue
		}
		// Cached bboxes: same booleans as Poly.BBox() per call.
		bb := d.Store.Derived(in.Fragments[seed].RegionID).BBox.Expand(1000)
		for _, r := range d.Scene.Regions {
			i, found := slices.BinarySearch(taken, r.ID)
			if found || !bb.Intersects(d.Store.Derived(r.ID).BBox) {
				continue
			}
			taken = slices.Insert(taken, i, r.ID)
			maxID++
			out = append(out, &Fragment{
				ID: maxID, RegionID: r.ID, Type: p.Kind, Conf: 30,
			})
		}
	}
	return out
}

func countConsistent(outs []LCCOutcome) int {
	n := 0
	for _, o := range outs {
		if o.Status == "consistent" {
			n++
		}
	}
	return n
}

func countClosed(fas []FunctionalArea) int {
	n := 0
	for _, f := range fas {
		if f.Status == "closed" {
			n++
		}
	}
	return n
}
