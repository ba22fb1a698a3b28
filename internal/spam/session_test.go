package spam

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"spampsm/internal/ops5"
	"spampsm/internal/rete"
	"spampsm/internal/scene"
	"spampsm/internal/tlp"
)

// compareOutputs asserts that two interpretations produced the same
// scene understanding — fragments, consistent pairs, LCC outcomes,
// functional areas, predictions and final model — without comparing
// cost accounting, which legitimately differs between an incremental
// update (only the changed tasks are charged) and a from-scratch run.
func compareOutputs(t *testing.T, aName string, a *Interpretation, bName string, b *Interpretation) {
	t.Helper()
	if !reflect.DeepEqual(a.Fragments, b.Fragments) {
		t.Errorf("fragments differ: %s %d %s %d", aName, len(a.Fragments), bName, len(b.Fragments))
	}
	if !reflect.DeepEqual(a.Pairs, b.Pairs) {
		t.Errorf("consistent pairs differ: %s %d %s %d", aName, len(a.Pairs), bName, len(b.Pairs))
	}
	if !reflect.DeepEqual(a.Outcomes, b.Outcomes) {
		t.Errorf("LCC outcomes differ: %s %d %s %d", aName, len(a.Outcomes), bName, len(b.Outcomes))
	}
	if !reflect.DeepEqual(a.FAs, b.FAs) {
		t.Errorf("functional areas differ: %s %d %s %d", aName, len(a.FAs), bName, len(b.FAs))
	}
	if !reflect.DeepEqual(a.Predictions, b.Predictions) {
		t.Errorf("predictions differ: %s %d %s %d", aName, len(a.Predictions), bName, len(b.Predictions))
	}
	if a.ModelFound != b.ModelFound || !reflect.DeepEqual(a.Model, b.Model) {
		t.Errorf("final models differ: %s %+v %s %+v", aName, a.Model, bName, b.Model)
	}
	if a.TotalFirings() == 0 {
		t.Fatal("interpretation fired nothing: differential test is vacuous")
	}
}

// fromScratch interprets the given scene state on a fresh dataset —
// the reference an incremental update must match byte-for-byte.
func fromScratch(t *testing.T, base *Dataset, s *scene.Scene, opt InterpretOptions) *Interpretation {
	t.Helper()
	d := NewDatasetWith(s.Clone(), base.KB, base.Progs)
	d.capture = base.capture
	in, err := d.Interpret(opt)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestSessionDifferentialIncremental is the incremental differential
// oracle: a session's initial interpretation must match the classic
// from-scratch path, and after each scene delta the incrementally
// updated interpretation — cached tasks reused, changed tasks run
// again — must be byte-identical to interpreting the updated scene
// from scratch.
func TestSessionDifferentialIncremental(t *testing.T) {
	d := smallDC(t)
	opt := InterpretOptions{Workers: 2}
	sess := NewSession(d, opt)
	in0, rep0, err := sess.Interpret(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep0.Fresh != rep0.Tasks || rep0.Reused != 0 || rep0.Rerun != 0 {
		t.Errorf("initial run should build everything fresh: %+v", rep0)
	}
	compareOutputs(t, "session", in0, "scratch", fromScratch(t, d, sess.Scene(), opt))

	for i, frac := range []float64{0.01, 0.05, 0.20} {
		delta := sess.Scene().Churn(scene.DefaultChurn(uint64(1000+i), frac))
		if delta.Empty() {
			t.Fatalf("churn %.2f produced an empty delta", frac)
		}
		in, rep, err := sess.Update(context.Background(), delta)
		if err != nil {
			t.Fatalf("update %.2f: %v", frac, err)
		}
		if rep.Reused == 0 {
			t.Errorf("churn %.2f: no task reuse at all: %+v", frac, rep)
		}
		if rep.Rerun == 0 {
			t.Errorf("churn %.2f: no cached task ran again: %+v", frac, rep)
		}
		compareOutputs(t, "incremental", in, "scratch", fromScratch(t, d, sess.Scene(), opt))
	}
}

// queueRecorder is a Runner that records what every phase queue
// presents to it — each task's identity and the
// RouteDigest sequence of the seeds its wire description carries —
// and runs the queue on a private pool. cancel, when set, is called
// once, just before the next queue runs.
type queueRecorder struct {
	pool   tlp.Pool
	queues [][]string
	cancel context.CancelFunc
}

func (q *queueRecorder) RunTasks(ctx context.Context, tasks []*tlp.Task) ([]*tlp.Result, error) {
	var queue []string
	for _, task := range tasks {
		spec, err := task.Wire()
		if err != nil {
			return nil, err
		}
		line := fmt.Sprintf("%s|%s|%s|%s", task.ID, task.Label, task.Group, spec.Phase)
		for _, sd := range spec.Seeds {
			line += fmt.Sprintf("|%x", rete.RouteDigest(sd.Class, sd.Vals))
		}
		queue = append(queue, line)
	}
	q.queues = append(q.queues, queue)
	if q.cancel != nil {
		q.cancel()
		q.cancel = nil
	}
	return q.pool.RunContext(ctx, tasks)
}

// TestSessionDifferentialQueues pins that the one-shot path and a
// session's first run are one enumeration: on every airport, at every
// decomposition level, with re-entry on, both present the same task
// IDs, labels, groups, estimates and seed sets to the Runner, queue by
// queue — and that an LCC task's ID names its focal fragment, not its
// queue position.
func TestSessionDifferentialQueues(t *testing.T) {
	for _, p := range []scene.Params{scene.SF, scene.DC, scene.MOFF} {
		d, err := NewDataset(p.Scale(0.4))
		if err != nil {
			t.Fatal(err)
		}
		for level := Level1; level <= Level4; level++ {
			opt := InterpretOptions{Level: level, ReEntry: true}
			oneShot, first := &queueRecorder{}, &queueRecorder{}
			opt.Runner = oneShot
			ref := fromScratch(t, d, d.Scene, opt)
			opt.Runner = first
			in, _, err := NewSession(d, opt).Interpret(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			compareOutputs(t, "session", in, "scratch", ref)
			if len(oneShot.queues) < 4 {
				t.Fatalf("%s L%d: one-shot run presented %d queues, want at least the four phases", p.Name, level, len(oneShot.queues))
			}
			if !reflect.DeepEqual(oneShot.queues, first.queues) {
				t.Errorf("%s L%d: one-shot and session first run present different queues", p.Name, level)
			}
		}
	}

	d := smallDC(t)
	in, err := d.Interpret(InterpretOptions{})
	if err != nil {
		t.Fatal(err)
	}
	idByFocal := func(frags []*Fragment) map[int]string {
		ids := map[int]string{}
		for _, task := range BuildLCCTasks(d.KB, d.Store, d.Progs.LCC, frags, Level3, false) {
			var focal int
			if _, err := fmt.Sscanf(task.Label, "LCC L3 object %d", &focal); err != nil {
				t.Fatalf("label %q: %v", task.Label, err)
			}
			ids[focal] = task.ID
		}
		return ids
	}
	all := idByFocal(in.Fragments)
	// in.Fragments[0] is an earlier focal of every task but its own.
	fewer := idByFocal(in.Fragments[1:])
	if len(fewer) < 2 {
		t.Fatalf("only %d LCC tasks: ID stability test is vacuous", len(fewer))
	}
	for focal, id := range fewer {
		if all[focal] != id {
			t.Errorf("focal %d: task ID %s with an earlier focal left out, %s with it", focal, id, all[focal])
		}
	}
}

// TestSessionAbortedUpdateKeepsCache pins that an update aborted in
// RTF costs the next update nothing: the cached results of the phases
// the aborted run never reached survive it.
func TestSessionAbortedUpdateKeepsCache(t *testing.T) {
	d := smallDC(t)
	run := &queueRecorder{pool: tlp.Pool{Workers: 2}}
	sess := NewSession(d, InterpretOptions{Runner: run})
	if _, _, err := sess.Interpret(context.Background()); err != nil {
		t.Fatal(err)
	}

	// A deadline that passes with nothing to run: RTF settles cancelled.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := sess.Update(ctx, &scene.Delta{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("update under a cancelled context: err = %v, want context.Canceled", err)
	}
	_, rep, err := sess.Update(context.Background(), &scene.Delta{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reused != rep.Tasks || rep.Fresh != 0 || rep.Rerun != 0 {
		t.Errorf("after an aborted no-op update, an empty update ran work: %+v", rep)
	}

	// A real delta cancelled as its RTF queue starts, then an empty
	// delta: the session must do exactly the work of a twin session
	// that applied the same delta undisturbed.
	churn := scene.DefaultChurn(11, 0.05)
	ctx, run.cancel = context.WithCancel(context.Background())
	if _, _, err := sess.Update(ctx, sess.Scene().Churn(churn)); !errors.Is(err, context.Canceled) {
		t.Fatalf("update cancelled mid-RTF: err = %v, want context.Canceled", err)
	}
	in, rep, err := sess.Update(context.Background(), &scene.Delta{})
	if err != nil {
		t.Fatal(err)
	}
	twin := NewSession(d, InterpretOptions{Workers: 2})
	if _, _, err := twin.Interpret(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, want, err := twin.Update(context.Background(), twin.Scene().Churn(churn))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tasks != want.Tasks || rep.Reused != want.Reused {
		t.Errorf("update after an abort mid-RTF reused %d of %d tasks; the undisturbed twin reused %d of %d",
			rep.Reused, rep.Tasks, want.Reused, want.Tasks)
	}
	compareOutputs(t, "after abort", in, "scratch", fromScratch(t, d, sess.Scene(), InterpretOptions{Workers: 2}))
}

// TestSessionDifferentialReEntry covers the FA→LCC re-entry path and a
// non-default decomposition level under the same oracle.
func TestSessionDifferentialReEntry(t *testing.T) {
	d := smallDC(t)
	opt := InterpretOptions{Workers: 2, ReEntry: true, Level: Level2}
	sess := NewSession(d, opt)
	in0, _, err := sess.Interpret(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	compareOutputs(t, "session", in0, "scratch", fromScratch(t, d, sess.Scene(), opt))
	delta := sess.Scene().Churn(scene.DefaultChurn(7, 0.05))
	in, _, err := sess.Update(context.Background(), delta)
	if err != nil {
		t.Fatal(err)
	}
	compareOutputs(t, "incremental", in, "scratch", fromScratch(t, d, sess.Scene(), opt))
}

// TestSessionEmptyUpdate proves the no-op bound: an empty delta reuses
// every cached task, runs nothing, and charges only the diff scan.
func TestSessionEmptyUpdate(t *testing.T) {
	d := smallDC(t)
	sess := NewSession(d, InterpretOptions{Workers: 2})
	in0, _, err := sess.Interpret(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	in, rep, err := sess.Update(context.Background(), &scene.Delta{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rerun != 0 || rep.Fresh != 0 || rep.Dropped != 0 {
		t.Errorf("empty update ran work: %+v", rep)
	}
	if rep.Reused != rep.Tasks {
		t.Errorf("empty update reused %d of %d tasks", rep.Reused, rep.Tasks)
	}
	if rep.UpdateInstr != rep.DiffInstr || rep.DiffInstr <= 0 {
		t.Errorf("empty update charged %v, want exactly the diff scan (%v), which is not free", rep.UpdateInstr, rep.DiffInstr)
	}
	compareOutputs(t, "noop", in, "initial", in0)
}

// TestSessionUpdateCostProportional asserts the headline property on
// the full DC scene: a 1%-churn update reuses the bulk of the task
// set and charges under 15% of the from-scratch interpretation's
// simulated cost. Full DC, not the scaled-down test scene: Scale
// shrinks the extent while the KB's constraint radii stay absolute,
// so in the small scene one moved region is a partner candidate of
// most focal units and legitimately invalidates their tasks —
// proportionality is a locality property, and the full scene is where
// the locality exists.
func TestSessionUpdateCostProportional(t *testing.T) {
	d, err := NewDataset(scene.DC)
	if err != nil {
		t.Fatal(err)
	}
	opt := InterpretOptions{Workers: 4}
	sess := NewSession(d, opt)
	if _, _, err := sess.Interpret(context.Background()); err != nil {
		t.Fatal(err)
	}
	delta := sess.Scene().Churn(scene.DefaultChurn(42, 0.01))
	_, rep, err := sess.Update(context.Background(), delta)
	if err != nil {
		t.Fatal(err)
	}
	full := fromScratch(t, d, sess.Scene(), opt)
	if ratio := rep.UpdateInstr / full.TotalInstr(); ratio >= 0.15 {
		t.Errorf("1%% churn update charged %.0f%% of from-scratch cost (update %.0f, full %.0f)",
			100*ratio, rep.UpdateInstr, full.TotalInstr())
	}
	if rep.Reused <= rep.Rerun+rep.Fresh {
		t.Errorf("1%% churn reran more than it reused: %+v", rep)
	}
	if rep.Rerun == 0 || len(rep.Reasons) == 0 {
		t.Errorf("no cached task ran again, or none says why: %+v", rep)
	}
	if rep.RetractedWMEs != 0 {
		t.Errorf("retired RetractedWMEs reads %d", rep.RetractedWMEs)
	}
}

// TestSessionDifferentialPerTask is session ≡ from-scratch per task: a
// task an update runs is the task a from-scratch interpretation of the
// updated scene runs — same run statistics, Rete counters and cost log
// (capture on, so the activation forests too) — and the update is
// charged the diff scan plus exactly those tasks. SF, DC and MOFF with
// re-entry over a churn ladder that ends by removing regions and
// adding them back.
func TestSessionDifferentialPerTask(t *testing.T) {
	for _, p := range []scene.Params{scene.SF, scene.DC, scene.MOFF} {
		base, err := NewDataset(p.Scale(0.4))
		if err != nil {
			t.Fatal(err)
		}
		d := capturing(base)
		ran := &recordingRunner{pool: tlp.Pool{Workers: 2}}
		opt := InterpretOptions{ReEntry: true}
		sopt := opt
		sopt.Runner = ran
		sess := NewSession(d, sopt)
		if _, _, err := sess.Interpret(context.Background()); err != nil {
			t.Fatal(err)
		}
		gone := sess.Scene().Clone().Regions[:3]
		deltas := []*scene.Delta{
			sess.Scene().Churn(scene.DefaultChurn(31, 0.01)),
			nil, nil, // drawn against the scene as updated so far
			{Removed: []int{gone[0].ID, gone[1].ID, gone[2].ID}},
			{Added: gone},
		}
		reran := 0
		for i, delta := range deltas {
			if delta == nil {
				delta = sess.Scene().Churn(scene.DefaultChurn(uint64(31+i), []float64{0.01, 0.02, 0.05}[i]))
			}
			ran.tasks = nil
			in, rep, err := sess.Update(context.Background(), delta)
			if err != nil {
				t.Fatalf("%s update %d: %v", p.Name, i, err)
			}
			ref := &recordingRunner{pool: tlp.Pool{Workers: 2}}
			fopt := opt
			fopt.Runner = ref
			full := fromScratch(t, d, sess.Scene(), fopt)
			name := fmt.Sprintf("%s update %d", p.Name, i+1)
			compareOutputs(t, name, in, "scratch", full)
			if len(ran.tasks) != rep.Rerun+rep.Fresh {
				t.Fatalf("%s: %d tasks ran, report says %d re-run + %d fresh", name, len(ran.tasks), rep.Rerun, rep.Fresh)
			}
			reran += rep.Rerun
			charged := rep.DiffInstr
			for id, got := range ran.tasks {
				want, ok := ref.tasks[id]
				if !ok {
					t.Fatalf("%s: task %s ran in the update but not from scratch", name, id)
				}
				if got.stats != want.stats {
					t.Errorf("%s: task %s: run stats %+v, from scratch %+v", name, id, got.stats, want.stats)
				}
				if got.counters != want.counters {
					t.Errorf("%s: task %s: rete counters %+v, from scratch %+v", name, id, got.counters, want.counters)
				}
				if !reflect.DeepEqual(got.log, want.log) {
					t.Errorf("%s: task %s: cost log differs from the from-scratch task's", name, id)
				}
				charged += want.stats.TotalInstr()
			}
			if math.Abs(rep.UpdateInstr-charged) > 1e-6*charged {
				t.Errorf("%s: charged %v, diff scan plus the from-scratch cost of the tasks that ran is %v", name, rep.UpdateInstr, charged)
			}
		}
		if reran == 0 {
			t.Fatalf("%s: no cached task ever ran again: the test is vacuous", p.Name)
		}
	}
}

// TestSessionRetainsNoEngine: a session's cache holds results, never
// engines, and what it holds does not live in any worker's arena —
// after other tasks have borrowed, dirtied and settled the same pool's
// scratches, re-extracting from the cache gives the same outputs.
func TestSessionRetainsNoEngine(t *testing.T) {
	d := smallDC(t)
	run := &queueRecorder{}
	opt := InterpretOptions{ReEntry: true}
	sopt := opt
	sopt.Runner = run
	sess := NewSession(d, sopt)
	in, _, err := sess.Interpret(context.Background())
	for i := 0; err == nil && i < 10; i++ {
		in, _, err = sess.Update(context.Background(), sess.Scene().Churn(scene.DefaultChurn(uint64(70+i), 0.02)))
	}
	if err != nil {
		t.Fatal(err)
	}
	for key, st := range sess.tasks {
		if st.res == nil || st.res.Engine != nil {
			t.Fatalf("cached task %s: result %v retains an engine", key, st.res)
		}
	}
	other, err := NewDataset(scene.SF)
	if err != nil {
		t.Fatal(err)
	}
	unrelated := BuildRTFTasks(other.KB, other.Store, other.Progs.RTF, 3, false)
	if len(unrelated) < 50 {
		t.Fatalf("only %d unrelated tasks", len(unrelated))
	}
	rs, err := run.pool.Run(unrelated)
	if err != nil || tlp.FirstError(rs) != nil {
		t.Fatal(err, tlp.FirstError(rs))
	}
	again, rep, err := sess.Update(context.Background(), &scene.Delta{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reused != rep.Tasks {
		t.Fatalf("empty update ran work: %+v", rep)
	}
	compareOutputs(t, "re-extracted", again, "before", in)
	compareOutputs(t, "re-extracted", again, "scratch", fromScratch(t, d, sess.Scene(), opt))
}

// TestSessionRerunReasonsPinned pins the first update of the
// benchmark's session (MOFF with re-entry, 2% DefaultChurn(1990)): how
// many tasks ran again and why. A change to the decomposition, the
// signatures or the churn generator moves it — on purpose or not.
func TestSessionRerunReasonsPinned(t *testing.T) {
	d, err := NewDataset(scene.MOFF)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(d, InterpretOptions{ReEntry: true, RTFBatch: 3})
	if _, _, err := sess.Interpret(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, rep, err := sess.Update(context.Background(), sess.Scene().Churn(scene.DefaultChurn(1990, 0.02)))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"rtf seed region": 1, "rtf seed+geo region": 1,
		"lcc seed fragment+scope": 20, "lcc seed+geo fragment+lcc-task+scope": 17,
		"fa seed consistency+fragment": 4,
	}
	if !reflect.DeepEqual(rep.Reasons, want) {
		t.Errorf("re-run reasons %v, want %v", rep.RerunReasons(), want)
	}
	n := 0
	for _, c := range rep.Reasons {
		n += c
	}
	if n != rep.Rerun {
		t.Errorf("reasons account for %d re-runs, report counts %d", n, rep.Rerun)
	}
}

// TestSessionDropsStaleTasks proves removal-side invalidation: heavy
// occlusion-only churn shrinks the scene, and the tasks whose focal
// work disappeared are dropped along with their engines.
func TestSessionDropsStaleTasks(t *testing.T) {
	d := smallDC(t)
	sess := NewSession(d, InterpretOptions{Workers: 2})
	if _, _, err := sess.Interpret(context.Background()); err != nil {
		t.Fatal(err)
	}
	delta := sess.Scene().Churn(scene.Churn{Seed: 3, Fraction: 0.3, Occlusion: 1.0})
	if len(delta.Removed) == 0 {
		t.Fatal("occlusion-only churn removed nothing")
	}
	in, rep, err := sess.Update(context.Background(), delta)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dropped == 0 {
		t.Errorf("removals dropped no tasks: %+v", rep)
	}
	compareOutputs(t, "incremental", in, "scratch",
		fromScratch(t, d, sess.Scene(), InterpretOptions{Workers: 2}))
}

// signingRunner runs a queue on its pool and, for every task, signs the
// rows its engine was loaded with on the worker — the working memory
// right after the build, in timetag order — as a session signs the rows
// its assembler hands the signer.
type signingRunner struct {
	pool tlp.Pool
	mu   sync.Mutex
	rows map[string][sha256.Size]byte
}

func (r *signingRunner) RunTasks(ctx context.Context, tasks []*tlp.Task) ([]*tlp.Result, error) {
	for i, task := range tasks {
		own, build := *task, task.BuildWith
		own.BuildWith = func(s *ops5.Scratch) (*ops5.Engine, error) {
			e, err := build(s)
			if err != nil {
				return nil, err
			}
			g := signer{h: sha256.New()}
			for _, w := range e.Memory().Snapshot() {
				g.AssertSeed(ops5.Seed{Class: w.Class.Name, Vals: w.Vals})
			}
			g.h.Sum(g.sig.rows[:0])
			r.mu.Lock()
			defer r.mu.Unlock()
			r.rows[own.ID] = g.sig.rows
			return e, nil
		}
		tasks[i] = &own
	}
	return r.pool.RunContext(ctx, tasks)
}

// TestSessionSignsWhatItRuns: a session signs a task by assembling its
// rows into the signer, and the task it runs assembles them again, into
// its engine on the worker. Every task a MOFF update runs — re-run or
// fresh — must load exactly the rows it was signed from, in order.
func TestSessionSignsWhatItRuns(t *testing.T) {
	d, err := NewDataset(scene.MOFF)
	if err != nil {
		t.Fatal(err)
	}
	ran := &signingRunner{pool: tlp.Pool{Workers: 2}, rows: map[string][sha256.Size]byte{}}
	sess := NewSession(d, InterpretOptions{ReEntry: true, Runner: ran})
	if _, _, err := sess.Interpret(context.Background()); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 3; k++ {
		ran.rows = map[string][sha256.Size]byte{}
		_, rep, err := sess.Update(context.Background(), sess.Scene().Churn(scene.DefaultChurn(1990+k, 0.02)))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Rerun == 0 || len(ran.rows) != rep.Rerun+rep.Fresh {
			t.Fatalf("update %d: %d tasks loaded, report says %d re-run + %d fresh", k, len(ran.rows), rep.Rerun, rep.Fresh)
		}
		for id, rows := range ran.rows {
			if st := sess.tasks[id]; st == nil || st.sig.rows != rows {
				t.Errorf("update %d: task %s loaded rows other than those it was signed from", k, id)
			}
		}
	}
}
