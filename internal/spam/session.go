// Interpretation sessions: incremental re-interpretation with cost
// proportional to scene churn.
//
// A Session holds a live interpretation of one scene — a private scene
// clone, its RegionStore, a persistent fragment grid, and every phase
// task's result — and folds scene deltas into it. What it keeps of a
// finished task is what a cluster result carries: statistics, cost log
// and a snapshot of the working-memory classes the phase's extractor
// reads. Never an engine: a task's match state goes back to its worker
// when the task ends, here as everywhere. A session run is
// Dataset.interpret — the same four-phase driver over the same task
// specs (tasks.go) as a one-shot interpretation — with retention on.
// Spec keys are stable (RTF position batches, LCC units by focal
// fragment and constraint, FA tasks by seed fragment), so the same
// logical task keeps its identity across updates. On each run the
// session assembles every task's seed working memory, collapses each
// seed to its rete.RouteDigest, takes the geometry epochs of the
// regions the task's externals can read (geo-test booleans and
// fa-predict-area candidate scans depend on region geometry the seed
// rows don't capture), and diffs the two signatures against the ones
// the task last ran with:
//
//   - both unchanged → the task's cached result is reused outright, at
//     zero simulated cost beyond the digest comparison;
//   - either changed, or a new key → the task runs as a fresh task,
//     exactly the task a from-scratch interpretation of the updated
//     scene would run, so its statistics and cost log are that task's;
//     a re-run is counted by which signature changed and, for the seed
//     signature, which row classes (UpdateReport.Reasons);
//   - disappeared key → the cached result is dropped.
//
// Because tasks share nothing and extraction orders every output, the
// updated Interpretation is byte-identical to interpreting the updated
// scene from scratch — the property the incremental differential
// oracle (session_test.go, `make oracle`) enforces — and so is every
// task that ran. Only the charged cost differs: proportional to churn
// instead of scene size.
//
// Sessions are single-threaded by contract: one Update at a time, no
// concurrent Interpret. The serving layer wraps each session in its
// own mutex (per-session serialization, cross-session parallelism).
package spam

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"spampsm/internal/ops5"
	"spampsm/internal/rete"
	"spampsm/internal/scene"
	"spampsm/internal/tlp"
)

// diffInstrPerSeed is the modeled charge of one seed-digest comparison
// during update diffing — a table probe, costed like one alpha-memory
// scan step so the diff itself stays visible in the update's simulated
// cost (UpdateReport.DiffInstr) rather than pretending to be free.
const diffInstrPerSeed = rete.CostAlphaScan

// Session is a live, updatable interpretation of one scene.
type Session struct {
	ds   *Dataset // private: cloned scene, own RegionStore; shared KB/Progs
	opt  InterpretOptions
	grid *liveGrid // session-persistent LCC partner index

	tasks   map[string]*sessTask
	rep     *UpdateReport // the run in progress
	last    *Interpretation
	updates int
}

// sessTask is one stable task's retained state between runs. The two
// halves of its signature are kept apart so that a re-run can say
// which one changed.
type sessTask struct {
	seed string      // seed-digest signature of the last run (seedSig)
	geo  string      // geometry-epoch signature of the last run (geoSig)
	res  *tlp.Result // cached result: stats, log, extract-class snapshot; no engine
	live bool        // touched by the current run (sweep mark)
}

// UpdateReport accounts one session run's incremental work. The
// initial interpretation is update 0 (everything Fresh); subsequent
// updates show the reuse the stable decomposition achieved and the
// charged cost of exactly the work that re-ran.
type UpdateReport struct {
	Update    int `json:"update"`
	DeltaSize int `json:"deltaSize"` // region changes folded in by this update

	Tasks   int `json:"tasks"`   // tasks enumerated this run
	Reused  int `json:"reused"`  // unchanged signature: cached result returned
	Rerun   int `json:"rerun"`   // cached result, changed signature: run again
	Fresh   int `json:"fresh"`   // new key: first run
	Dropped int `json:"dropped"` // stale tasks discarded

	// SeedsDiffed counts the seed digests compared; DiffInstr is their
	// modeled charge (diffInstrPerSeed each), included in UpdateInstr.
	SeedsDiffed int     `json:"seedsDiffed"`
	DiffInstr   float64 `json:"diffInstr"`

	// RetractedWMEs is retired and always 0: nothing is retracted since
	// sessions stopped resetting engines. The field stays only because
	// benchmark/sessions.go compiles against it; the declared
	// benchmark-surface revision of ROADMAP item 4 deletes it.
	RetractedWMEs int `json:"-"`

	// Reasons says why each of the Rerun tasks ran again, as counts
	// keyed "<phase> <signature>[ <rows>]": phase is rtf, lcc, fa or
	// model; signature is seed, geo or seed+geo, whichever half of the
	// task's signature changed; rows, for a seed change, are the row
	// classes whose digest multisets differ, joined by "+" ("order" when
	// the same rows arrived in another order).
	Reasons map[string]int `json:"reasons,omitempty"`

	// UpdateInstr is the charged simulated cost of this run: the diff
	// charge plus the full cost (load + match + act) of the tasks that
	// actually ran — their from-scratch cost. Reused tasks contribute
	// nothing.
	UpdateInstr float64 `json:"updateInstr"`

	Wall time.Duration `json:"wallNs"`

	// Grid and Geo surface the session's incremental index counters:
	// the live grid's patch work and the store's predicate-memo
	// hit/eviction accounting.
	Grid LiveGridStats `json:"grid"`
	Geo  GeoMemoStats  `json:"geo"`
}

// RerunReasons lists Reasons as sorted "<key> ×<count>" entries, for a
// report line.
func (r *UpdateReport) RerunReasons() []string {
	out := make([]string, 0, len(r.Reasons))
	for k, n := range r.Reasons {
		out = append(out, fmt.Sprintf("%s ×%d", k, n))
	}
	sort.Strings(out)
	return out
}

// NewSession opens a session over the dataset: the scene is cloned
// (the dataset — often shared and pinned — is never mutated), the
// store is private, and the knowledge base and compiled programs are
// shared. Call Interpret once for the initial interpretation, then
// Update per scene delta. The options are fixed for the session's
// lifetime so the decomposition stays stable.
func NewSession(ds *Dataset, opt InterpretOptions) *Session {
	opt = opt.withDefaults()
	// Prebuild overlaps first-run engine construction on engines that
	// own their memory; it is pointless on updates, and sessions skip it.
	opt.Prebuild = false
	if opt.Runner == nil {
		// One pool for the session's lifetime: its workers, memory gate
		// and throttle accounting span every update.
		opt.Runner = newPoolRunner(opt)
	}
	return &Session{
		ds:    NewDatasetWith(ds.Scene.Clone(), ds.KB, ds.Progs),
		opt:   opt,
		tasks: map[string]*sessTask{},
	}
}

// Scene returns the session's private scene (mutated by Update).
func (s *Session) Scene() *scene.Scene { return s.ds.Scene }

// Store returns the session's private region store.
func (s *Session) Store() *RegionStore { return s.ds.Store }

// Updates returns the number of deltas folded in so far.
func (s *Session) Updates() int { return s.updates }

// Last returns the most recent interpretation, or nil before the
// first Interpret.
func (s *Session) Last() *Interpretation { return s.last }

// GridStats returns the persistent fragment grid's update counters
// (zero while the session runs the scan path).
func (s *Session) GridStats() LiveGridStats { return s.grid.Stats() }

// Interpret runs the initial interpretation (or re-runs the current
// scene state; an unchanged scene reuses every cached task).
func (s *Session) Interpret(ctx context.Context) (*Interpretation, *UpdateReport, error) {
	return s.run(ctx, 0)
}

// Update folds a scene delta into the session and re-interprets: the
// store applies the delta (derived geometry, predicate-memo epochs and
// the fragment-seed cache invalidate for exactly the changed regions),
// and only the tasks whose signatures changed run again. The returned
// interpretation is byte-identical to a from-scratch interpretation of
// the updated scene.
func (s *Session) Update(ctx context.Context, d *scene.Delta) (*Interpretation, *UpdateReport, error) {
	if err := s.ds.Store.ApplyDelta(d); err != nil {
		return nil, nil, err
	}
	s.updates++
	return s.run(ctx, d.Size())
}

// seedSig collapses a seed set to its order-sensitive digest
// signature. Each seed's RouteDigest is length-prefixed, so no two
// distinct seed sequences share a signature by concatenation.
func seedSig(seeds []ops5.Seed) string {
	b := make([]byte, 0, 64*len(seeds))
	for _, sd := range seeds {
		d := sd.Digest
		if d == "" {
			d = rete.RouteDigest(sd.Class, sd.Vals)
		}
		b = binary.AppendUvarint(b, uint64(len(d)))
		b = append(b, d...)
	}
	return string(b)
}

// geoSig encodes the geometry epochs of the regions a task's externals
// can read, as sorted deduplicated (id, epoch) pairs. The seed rows
// alone under-determine a task's output whenever an external reads the
// store: geo-test booleans (LCC) and fa-predict-area candidate counts
// (FA) change with region geometry while the fragment tuples and
// quantized measurements stay identical. Folding the epochs into the
// signature makes every such task re-run exactly when a delta touched
// geometry it can observe. It returns the encoding and its entry count.
func geoSig(st *RegionStore, ids []int) (string, int) {
	if len(ids) == 0 {
		return "", 0
	}
	sort.Ints(ids)
	b := make([]byte, 0, 4*len(ids))
	last, n := -1, 0
	for _, id := range ids {
		if id == last {
			continue
		}
		last = id
		b = binary.AppendUvarint(b, uint64(id))
		b = binary.AppendUvarint(b, uint64(st.EpochOf(id)))
		n++
	}
	return string(b), n
}

// run executes the four-phase driver over the session's current scene
// state with retention on. Stale tasks — keys the run did not
// enumerate — are swept only when the run completes: an aborted run
// (a cancelled or failed update) never reached the later phases, and
// their cached results stay for the next update.
func (s *Session) run(ctx context.Context, deltaSize int) (*Interpretation, *UpdateReport, error) {
	start := time.Now()
	rep := &UpdateReport{Update: s.updates, DeltaSize: deltaSize, Reasons: map[string]int{}}
	s.rep = rep
	for _, st := range s.tasks {
		st.live = false
	}
	in, err := s.ds.interpret(ctx, s.opt, s)
	if err == nil {
		for k, st := range s.tasks {
			if !st.live {
				delete(s.tasks, k)
				rep.Dropped++
			}
		}
		s.last = in
	}
	rep.UpdateInstr += rep.DiffInstr
	rep.Wall = time.Since(start)
	rep.Grid = s.grid.Stats()
	rep.Geo = s.ds.Store.GeoStats()
	return in, rep, err
}

// partnerGrid brings the persistent grid up to date with the RTF
// output and returns it (nil while the pool is too small for one).
func (s *Session) partnerGrid(frags []*Fragment) *liveGrid {
	if s.grid == nil {
		s.grid = newLiveGrid(s.ds.Store, frags)
	} else {
		s.grid.refresh(frags)
	}
	return s.grid
}

// rerunReason names what changed between the signature a cached task
// last ran with and the one it is about to run with (see
// UpdateReport.Reasons).
func rerunReason(phase string, st *sessTask, seed, geo string) string {
	if st.seed == seed {
		return phase + " geo"
	}
	why := phase + " seed"
	if st.geo != geo {
		why += "+geo"
	}
	was, now := sigClasses(st.seed), sigClasses(seed)
	var rows []string
	for class, digests := range now {
		if !slices.Equal(digests, was[class]) {
			rows = append(rows, class)
		}
	}
	for class := range was {
		if now[class] == nil {
			rows = append(rows, class)
		}
	}
	if len(rows) == 0 {
		return why + " order"
	}
	sort.Strings(rows)
	return why + " " + strings.Join(rows, "+")
}

// sigClasses decodes a seedSig back into its digests, sorted per row
// class: a RouteDigest opens with its length-prefixed class name.
func sigClasses(sig string) map[string][]string {
	out := map[string][]string{}
	for b := []byte(sig); len(b) > 0; {
		n, k := binary.Uvarint(b)
		d := b[k : k+int(n)]
		b = b[k+int(n):]
		cn, ck := binary.Uvarint(d)
		class := string(d[ck : ck+int(cn)])
		out[class] = append(out[class], string(d))
	}
	for _, digests := range out {
		sort.Strings(digests)
	}
	return out
}

// retain reduces a finished task's result to what the session keeps:
// the WMEs of the phase's extract classes move from the engine into
// the result's Snapshot and the engine goes. WMEs are ordinary heap
// objects, never arena memory, so the snapshot outlives the settled
// engine's match state. It does not assume the Runner settled the
// engine (a serial replay hands back owned, unsettled engines), and a
// cluster Runner's results are snapshots already.
func retain(r *tlp.Result, classes []string) {
	if r.Engine == nil {
		return
	}
	r.Snapshot = make(tlp.Snapshot, len(classes))
	for _, class := range classes {
		r.Snapshot[class] = r.Engine.WMEs(class)
	}
	r.Engine = nil
}

// runSpecs is one phase queue under retention: it assembles each
// spec's seeds, diffs the signatures against the cached task state,
// reuses unchanged tasks, and runs the changed/new remainder as one
// queue of fresh tasks through the runner (retaining the pool's retry,
// quarantine and memory-gate semantics). Results come back in spec
// order, reduced to what the session retains.
func (s *Session) runSpecs(ctx context.Context, runner Runner, specs []taskSpec) ([]*tlp.Result, error) {
	rep, store := s.rep, s.ds.Store
	def := phaseDefs[specs[0].phase]
	prog := def.prog(s.ds.Progs)
	results := make([]*tlp.Result, len(specs))
	var tasks []*tlp.Task
	var pending []int // spec index per submitted task
	for i := range specs {
		sp := &specs[i]
		seeds, err := def.seeds(prog, store, sp)
		if err != nil {
			return nil, err
		}
		geo, geoN := "", 0
		if def.regions != nil {
			geo, geoN = geoSig(store, def.regions(store, sp))
		}
		rep.Tasks++
		rep.SeedsDiffed += len(seeds) + geoN
		rep.DiffInstr += float64(len(seeds)+geoN) * diffInstrPerSeed
		st := s.tasks[sp.key]
		if st != nil && st.live {
			return nil, fmt.Errorf("spam: session: duplicate task key %s", sp.key)
		}
		seed := seedSig(seeds)
		cached := st != nil && st.res != nil && st.res.Err == nil
		if cached && st.seed == seed && st.geo == geo {
			st.live = true
			results[i] = st.res
			rep.Reused++
			continue
		}
		// Changed or new: the cached result is dead either way.
		if cached {
			rep.Rerun++
			rep.Reasons[rerunReason(sp.phase, st, seed, geo)]++
		} else {
			rep.Fresh++
		}
		if st == nil {
			st = &sessTask{}
			s.tasks[sp.key] = st
		}
		st.seed, st.geo, st.res, st.live = seed, geo, nil, true
		tasks = append(tasks, newTask(prog, store, sp, s.opt.Capture, seeds))
		pending = append(pending, i)
	}
	if len(tasks) == 0 {
		return results, nil
	}
	rs, err := runner.RunTasks(ctx, tasks)
	if err != nil {
		return nil, err
	}
	// Results return in queue order, which a scheduling policy may
	// permute; rejoin them to their specs by task ID.
	byID := make(map[string]*tlp.Result, len(rs))
	for _, r := range rs {
		if r != nil {
			byID[r.TaskID] = r
		}
	}
	for _, i := range pending {
		r := byID[specs[i].key]
		results[i] = r
		s.tasks[specs[i].key].res = r
		if r != nil {
			retain(r, def.extract)
			if r.Err == nil {
				rep.UpdateInstr += r.Stats.TotalInstr()
			}
		}
	}
	return results, nil
}
