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
// Spec keys are stable (RTF batches by region-ID cell, LCC units by
// focal fragment and constraint, FA tasks by seed fragment), so the
// same logical task keeps its identity across updates. On each run the
// session signs every task by its two inputs — the seed rows the
// control process hands it, hashed in assertion order as they come out
// of the assembler, and what its task-related geometric externals
// would answer, asked of the store through the functions the externals
// call (phaseDefs.answers) — and diffs the signature against the one
// the task last ran with:
//
//   - unchanged → the task's cached result is reused outright, at zero
//     simulated cost beyond the comparison;
//   - changed, or a new key → the task runs as a fresh task, exactly
//     the task a from-scratch interpretation of the updated scene would
//     run, so its statistics and cost log are that task's; a re-run is
//     counted by which half changed and, for the seed rows, which row
//     classes (UpdateReport.Reasons);
//   - disappeared key → the cached result is dropped.
//
// Reuse is sound because a task is deterministic in (program, seed
// rows, its externals' answers in call order): rules read nothing else.
// The answer functions cover a superset of the calls the rules can
// make — one per scope triple, the one neighbourhood scan every
// prediction of an FA task repeats, one vertex count per batch region —
// and an answer includes the call's simulated cost, because session ≡
// from-scratch holds per task for RunStats, rete.Counters and CostLog,
// not only for outputs. Geometry that moves without moving an answer
// re-runs nothing.
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
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/maphash"
	"math"
	"sort"
	"strings"
	"time"

	"spampsm/internal/ops5"
	"spampsm/internal/rete"
	"spampsm/internal/scene"
	"spampsm/internal/symtab"
	"spampsm/internal/tlp"
)

// diffInstrPerSeed is the modeled charge of comparing one seed row or
// one external answer during update diffing — a table probe, costed
// like one alpha-memory scan step so the diff itself stays visible in
// the update's simulated cost (UpdateReport.DiffInstr) rather than
// pretending to be free.
const diffInstrPerSeed = rete.CostAlphaScan

// Session is a live, updatable interpretation of one scene.
type Session struct {
	ds   *Dataset // private: cloned scene, own RegionStore; shared KB/Progs
	opt  InterpretOptions
	grid *liveGrid // session-persistent LCC partner index

	tasks   map[string]*sessTask
	sig     signer
	rep     *UpdateReport // the run in progress
	updates int
}

// sessTask is one stable task's retained state between runs: a
// signature of fixed size per row class, whatever the task's seed
// count, and the result.
type sessTask struct {
	sig  taskSig     // what the last run was handed and would have been answered
	res  *tlp.Result // cached result: stats, log, extract-class snapshot; no engine
	live bool        // touched by the current run (sweep mark)
}

// taskSig is a task's signature. Its two halves are kept apart, and the
// seed half carries an order-free digest per row class, so that a
// re-run can say what changed; only rows and answers decide reuse.
type taskSig struct {
	rows    [sha256.Size]byte // every seed row's canonical bytes, in assertion order
	answers [sha256.Size]byte // every answer of the task's externals, in seed order
	classes []classSum        // per row class, by first appearance
}

// classSum digests one class's rows as a multiset: the wrapping sum of
// their 64-bit hashes.
type classSum struct {
	class string
	sum   uint64
}

// sumOf returns a row class's sum, false when the task has no such row.
func (g *taskSig) sumOf(class string) (uint64, bool) {
	for _, c := range g.classes {
		if c.class == class {
			return c.sum, true
		}
	}
	return 0, false
}

// signer computes task signatures, one task at a time, through one
// hash state, one row buffer and one value vector. It is the seed sink
// a task's rows are assembled into to be signed: each row is hashed as
// it arrives, and no row is kept.
type signer struct {
	h    hash.Hash
	buf  []byte
	vals []symtab.Value
	// The task being signed: its signature so far, and the rows and
	// answers folded into h.
	sig           taskSig
	rows, answers int
}

// rowHashSeed keys the row hashes behind classSum. It is drawn per
// process: sums are only ever compared with sums of the same session.
var rowHashSeed = maphash.MakeSeed()

// sign computes the signature of the task the spec describes: its
// seed rows, assembled into the signer, and what the store would answer
// its externals (the phase's answers function; nil: nothing). It also
// returns how many rows and answers the signature covers.
func (g *signer) sign(prog *ops5.Program, st *RegionStore, sp *taskSpec) (taskSig, int, error) {
	g.sig, g.rows, g.answers = taskSig{}, 0, 0
	if err := assemble(prog, st, sp, g); err != nil {
		g.h.Reset()
		return taskSig{}, 0, err
	}
	g.h.Sum(g.sig.rows[:0])
	g.h.Reset()
	if answers := phaseDefs[sp.phase].answers; answers != nil {
		answers(st, sp, g)
	}
	g.h.Sum(g.sig.answers[:0])
	g.h.Reset()
	return g.sig, g.rows + g.answers, nil
}

// NewVals hands out the signer's one value vector: a row is hashed
// when it arrives and not kept.
func (g *signer) NewVals(n int) []symtab.Value {
	if cap(g.vals) < n {
		g.vals = make([]symtab.Value, n)
	}
	g.vals = g.vals[:n]
	clear(g.vals)
	return g.vals
}

// AssertSeed folds one seed row into the signature: its canonical
// bytes — a shared seed's digest as it stands, a plain row's
// RouteDigest into the reused buffer — go length-prefixed into the
// running hash and, hashed alone, into their class's sum.
func (g *signer) AssertSeed(sd ops5.Seed) error {
	b := g.buf[:0]
	if sd.Digest != "" {
		b = append(b, sd.Digest...)
	} else {
		b = rete.AppendRouteDigest(b, sd.Class, sd.Vals)
	}
	g.buf = b
	var size [binary.MaxVarintLen64]byte
	g.h.Write(size[:binary.PutUvarint(size[:], uint64(len(b)))])
	g.h.Write(b)
	sig := &g.sig
	i := 0
	for i < len(sig.classes) && sig.classes[i].class != sd.Class {
		i++
	}
	if i == len(sig.classes) {
		sig.classes = append(sig.classes, classSum{class: sd.Class})
	}
	sig.classes[i].sum += maphash.Bytes(rowHashSeed, b)
	g.rows++
	return nil
}

// answer folds one external call's answer — its value and its
// simulated cost — into the running hash.
func (g *signer) answer(v int, cost float64) {
	b := binary.AppendVarint(g.buf[:0], int64(v))
	g.buf = binary.LittleEndian.AppendUint64(b, math.Float64bits(cost))
	g.h.Write(g.buf)
	g.answers++
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

	// SeedsDiffed counts the seed rows and external answers compared;
	// DiffInstr is their modeled charge (diffInstrPerSeed each), included
	// in UpdateInstr.
	SeedsDiffed int     `json:"seedsDiffed"`
	DiffInstr   float64 `json:"diffInstr"`

	// RetractedWMEs is retired and always 0: nothing is retracted since
	// sessions stopped resetting engines. The field stays only because
	// benchmark/sessions.go compiles against it; the declared
	// benchmark-surface revision of ROADMAP item 1 deletes it.
	RetractedWMEs int `json:"-"`

	// Reasons says why each of the Rerun tasks ran again, as counts
	// keyed "<phase> <signature>[ <rows>]": phase is rtf, lcc, fa or
	// model; signature is seed, geo or seed+geo, whichever half of the
	// task's signature changed — the rows it is handed, or what its
	// geometric externals answer (a boolean, a candidate count, a cost);
	// rows, for a seed change, are the row classes whose multisets
	// differ, joined by "+" ("order" when the same rows arrived in
	// another order).
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
// shared. The session builds its engines as the dataset's are built
// (capturing, or on a reference store). Call Interpret once for the
// initial interpretation, then Update per scene delta. The options are
// fixed for the session's lifetime so the decomposition stays stable.
func NewSession(ds *Dataset, opt InterpretOptions) *Session {
	opt = opt.withDefaults()
	if opt.Runner == nil {
		// One pool for the session's lifetime: its workers and their
		// match arenas span every update.
		opt.Runner = privateQueue(opt)
	}
	own := NewDatasetWith(ds.Scene.Clone(), ds.KB, ds.Progs)
	own.capture, own.Store.reference = ds.capture, ds.Store.reference
	return &Session{
		ds:    own,
		opt:   opt,
		tasks: map[string]*sessTask{},
		sig:   signer{h: sha256.New()},
	}
}

// Scene returns the session's private scene (mutated by Update).
func (s *Session) Scene() *scene.Scene { return s.ds.Scene }

// Store returns the session's private region store.
func (s *Session) Store() *RegionStore { return s.ds.Store }

// Updates returns the number of deltas folded in so far.
func (s *Session) Updates() int { return s.updates }

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
func rerunReason(phase string, was, now *taskSig) string {
	if was.rows == now.rows {
		return phase + " geo"
	}
	why := phase + " seed"
	if was.answers != now.answers {
		why += "+geo"
	}
	var rows []string
	for _, c := range now.classes {
		if sum, ok := was.sumOf(c.class); !ok || sum != c.sum {
			rows = append(rows, c.class)
		}
	}
	for _, c := range was.classes {
		if _, ok := now.sumOf(c.class); !ok {
			rows = append(rows, c.class)
		}
	}
	if len(rows) == 0 {
		return why + " order"
	}
	sort.Strings(rows)
	return why + " " + strings.Join(rows, "+")
}

// runSpecs is one phase queue under retention: it signs each spec —
// its seed rows, assembled into the signer and not kept, and the
// store's answers — diffs the signature against the cached task state,
// reuses unchanged tasks, and runs the changed/new remainder as one
// queue of fresh tasks through the runner (retaining the pool's retry
// and quarantine semantics); each assembles its rows again, into its
// engine. Results come back in spec order, reduced to what the session
// retains.
func (s *Session) runSpecs(ctx context.Context, runner Runner, specs []taskSpec) ([]*tlp.Result, error) {
	rep, store := s.rep, s.ds.Store
	def := phaseDefs[specs[0].phase]
	prog := def.prog(s.ds.Progs)
	results := make([]*tlp.Result, len(specs))
	var tasks []*tlp.Task
	var pending []int // spec index per submitted task
	for i := range specs {
		sp := &specs[i]
		sig, n, err := s.sig.sign(prog, store, sp)
		if err != nil {
			return nil, err
		}
		rep.Tasks++
		rep.SeedsDiffed += n
		rep.DiffInstr += float64(n) * diffInstrPerSeed
		st := s.tasks[sp.key]
		if st != nil && st.live {
			return nil, fmt.Errorf("spam: session: duplicate task key %s", sp.key)
		}
		cached := st != nil && st.res != nil && st.res.Err == nil
		if cached && st.sig.rows == sig.rows && st.sig.answers == sig.answers {
			st.live = true
			results[i] = st.res
			rep.Reused++
			continue
		}
		// Changed or new: the cached result is dead either way.
		if cached {
			rep.Rerun++
			rep.Reasons[rerunReason(sp.phase, &st.sig, &sig)]++
		} else {
			rep.Fresh++
		}
		if st == nil {
			st = &sessTask{}
			s.tasks[sp.key] = st
		}
		st.sig, st.res, st.live = sig, nil, true
		tasks = append(tasks, newTask(prog, store, sp, s.ds.capture))
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
			// What the session keeps of a finished task: the snapshot of
			// the phase's extract classes — exact-size copies the executor
			// took before it settled the engine — and no engine. A serial
			// replay hands back owned, unsettled engines and no snapshot;
			// their rows are copied here.
			if r.Snapshot == nil && r.Engine != nil {
				r.Snapshot = r.Engine.Memory().CopyClasses(def.extract)
			}
			r.Engine = nil
			if r.Err == nil {
				rep.UpdateInstr += r.Stats.TotalInstr()
			}
		}
	}
	return results, nil
}
