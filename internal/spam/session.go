// Interpretation sessions: incremental re-interpretation with cost
// proportional to scene churn.
//
// A Session holds a live interpretation of one scene — a private scene
// clone, its RegionStore, a persistent fragment grid, and every phase
// task's quiesced Rete engine — and folds scene deltas into it. A
// session run is Dataset.interpret — the same four-phase driver over
// the same task specs (tasks.go) as a one-shot interpretation — with
// retention on. Spec keys are stable (RTF position batches, LCC units
// by focal fragment and constraint, FA tasks by seed fragment), so the
// same logical task keeps its identity across updates. On each run the
// session assembles every task's seed working memory, collapses each
// seed to its rete.RouteDigest, appends the geometry epochs of the
// regions the task's externals can read (geo-test booleans and
// fa-predict-area candidate scans depend on region geometry the seed
// rows don't capture), and diffs the signature against the one the
// task last ran with:
//
//   - unchanged signature → the task's cached result (and its warm
//     engine, holding the final working memory) is reused outright, at
//     zero simulated cost beyond the digest comparison;
//   - changed signature with a retained engine → the engine is returned
//     to the empty-WM state (ops5.ResetForUpdate retracts the live WM
//     through the Rete network), reloaded with the new seeds, and
//     re-run — the warm engine keeps its compiled network, token pools
//     and hash indexes, and the retract+reload charge is the update's
//     honestly accounted cost;
//   - new key → a fresh engine, as in a from-scratch run;
//   - disappeared key → the task and its engine are dropped.
//
// Because tasks share nothing and extraction orders every output, the
// updated Interpretation is byte-identical to interpreting the updated
// scene from scratch — the property the incremental differential
// oracle (session_test.go, `make oracle`) enforces. Only the charged
// cost differs: proportional to churn instead of scene size.
//
// Sessions are single-threaded by contract: one Update at a time, no
// concurrent Interpret. The serving layer wraps each session in its
// own mutex (per-session serialization, cross-session parallelism).
package spam

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
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

// sessTask is one stable task's retained state between runs.
type sessTask struct {
	sig  string      // seed-digest signature of the last run
	res  *tlp.Result // cached result; Engine retained warm for reuse/reset
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
	Rerun   int `json:"rerun"`   // warm engine reset, reloaded and re-run
	Fresh   int `json:"fresh"`   // newly built engines
	Dropped int `json:"dropped"` // stale tasks (and engines) discarded

	// SeedsDiffed counts the seed digests compared; DiffInstr is their
	// modeled charge (diffInstrPerSeed each), included in UpdateInstr.
	SeedsDiffed int     `json:"seedsDiffed"`
	DiffInstr   float64 `json:"diffInstr"`

	// RetractedWMEs is the seed volume unloaded from warm engines
	// (ops5.MemStats.RetractedWMEs summed over the reset tasks).
	RetractedWMEs int `json:"retractedWMEs"`

	// UpdateInstr is the charged simulated cost of this run: the diff
	// charge plus the full cost (retract + reload + match + act) of the
	// tasks that actually ran. Reused tasks contribute nothing.
	UpdateInstr float64 `json:"updateInstr"`

	Wall time.Duration `json:"wallNs"`

	// Grid and Geo surface the session's incremental index counters:
	// the live grid's patch work and the store's predicate-memo
	// hit/eviction accounting.
	Grid LiveGridStats `json:"grid"`
	Geo  GeoMemoStats  `json:"geo"`
}

// NewSession opens a session over the dataset: the scene is cloned
// (the dataset — often shared and pinned — is never mutated), the
// store is private, and the knowledge base and compiled programs are
// shared. Call Interpret once for the initial interpretation, then
// Update per scene delta. The options are fixed for the session's
// lifetime so the decomposition stays stable.
func NewSession(ds *Dataset, opt InterpretOptions) *Session {
	opt = opt.withDefaults()
	// Prebuild overlaps first-run engine construction but is pointless
	// (and would fight warm-engine reuse) on updates; sessions skip it.
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
// and only the tasks whose seed signatures changed re-run, on their
// retained warm engines. The returned interpretation is byte-identical
// to a from-scratch interpretation of the updated scene.
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
// their cached results and warm engines stay for the next update.
func (s *Session) run(ctx context.Context, deltaSize int) (*Interpretation, *UpdateReport, error) {
	start := time.Now()
	rep := &UpdateReport{Update: s.updates, DeltaSize: deltaSize}
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

// runSpecs is one phase queue under retention: it assembles each
// spec's seeds, diffs the signature against the cached task state,
// reuses unchanged tasks, and runs the changed/new remainder as one
// queue through the runner (retaining the pool's retry, quarantine and
// memory-gate semantics). Results come back in spec order; engines
// stay attached for extraction and warm reuse.
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
		// seedSig is a prefix code, so appending the epoch component
		// keeps the combined signature collision-free.
		sig := seedSig(seeds) + geo
		if st != nil && st.sig == sig && st.res != nil && st.res.Err == nil {
			st.live = true
			results[i] = st.res
			rep.Reused++
			continue
		}
		// Changed or new: take the warm engine (if any) for a
		// reset+reload; the cached result is dead either way.
		var warm *ops5.Engine
		if st != nil {
			if st.res != nil {
				warm = st.res.Engine
				st.res = nil
			}
		} else {
			st = &sessTask{}
			s.tasks[sp.key] = st
		}
		if warm != nil {
			rep.Rerun++
		} else {
			rep.Fresh++
		}
		st.sig = sig
		st.live = true
		tasks = append(tasks, newTask(prog, store, sp, s.opt.Capture, &retention{seeds: seeds, warm: warm}))
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
		if r != nil && r.Err == nil {
			rep.UpdateInstr += r.Stats.TotalInstr()
			if r.Log != nil {
				rep.RetractedWMEs += r.Log.Mem.RetractedWMEs
			}
		}
	}
	return results, nil
}
