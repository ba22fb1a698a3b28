package cluster

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spampsm/internal/faults"
	"spampsm/internal/spam"
	"spampsm/internal/tlp"
)

// The death harness. A worker death is something a test does to a
// worker from outside it: no product code can make a worker kill
// itself. It has two layers. The enumerated one (TestKillPoint) stages
// every death point it names on scripted stub workers and holds each to
// the charge rule exactly. The seeded one (deathHarness) runs real
// in-process workers through a whole interpretation and drops a
// worker's connection when a seeded plan fates the task it starts.

// killPoint is one death on the stub workers: the victim has had
// merged of its results merged, holds a full window, writes the first
// torn bytes of the next result frame (none when torn is 0) and dies.
type killPoint struct {
	localWorkers, merged, maxRetries, torn int
}

// TestKillPoint enumerates the points a worker can die at and holds
// the recovery to its rule at each. The matrix is every merged count
// from an empty window to a full one, at one and two task processes a
// worker, with and without retries: of the dead connection's unmerged
// tasks, exactly the first LocalWorkers+resultBatch in ship order —
// the ones its task processes can have started, finished or not — are
// charged an attempt; the rest re-ship at the attempt they had; the
// survivor merges every task exactly once. Beside it are three deaths
// the matrix cannot stage: a victim that dies part-way through writing
// a result frame, for every byte it can stop at; one that dies after
// the handshake and before any task frame; and one that dies after the
// run's last result.
func TestKillPoint(t *testing.T) {
	type row struct {
		name string
		run  func(t *testing.T)
	}
	var rows []row
	for _, lw := range []int{1, 2} {
		for merged := 0; merged <= shipDepth*lw; merged++ {
			for _, retries := range []int{0, 2} {
				pt := killPoint{localWorkers: lw, merged: merged, maxRetries: retries}
				rows = append(rows, row{fmt.Sprintf("lw%d_merged%02d_retries%d", lw, merged, retries), func(t *testing.T) { pt.run(t) }})
			}
		}
	}
	// The torn frame answers the first unmerged task, after one merged
	// result: the stub's table has interned a frame's strings already.
	model := &stubWorker{enc: NewEncTab()}
	model.resultFrame(&TaskMsg{RunID: 1, Seq: 0, ID: "kp-0000", StartAttempt: 1})
	frameSize := len(model.resultFrame(&TaskMsg{RunID: 1, Seq: 1, ID: "kp-0001", StartAttempt: 1}))
	for k := 1; k < frameSize; k++ {
		pt := killPoint{localWorkers: 1, merged: 1, maxRetries: 2, torn: k}
		rows = append(rows, row{fmt.Sprintf("torn_result_%02d_of_%d_bytes", k, frameSize), func(t *testing.T) {
			if got := pt.run(t); got != frameSize {
				t.Fatalf("the torn result frame is %d bytes, the rows were enumerated for %d", got, frameSize)
			}
		}})
	}
	rows = append(rows, row{"death_after_init", deathAfterInit}, row{"death_after_last_result", deathAfterLastResult})
	t.Logf("%d death points", len(rows))
	for _, r := range rows {
		t.Run(r.name, r.run)
	}
}

// run stages the death on two stub workers: the victim takes slot 0,
// and the survivor answers nothing until the victim is dead, so which
// tasks the victim held is the test's choice and not the scheduler's.
// It returns the torn frame's full length, 0 when nothing was torn.
func (pt killPoint) run(t *testing.T) int {
	window := shipDepth * pt.localWorkers
	charge := pt.localWorkers + resultBatch
	co := listenBare(t, Config{Workers: 2, LocalWorkers: pt.localWorkers})
	victim := dialStub(t, co, 1)
	survivor := dialStub(t, co, 2)
	tasks := stubTasks(4 * window)
	wait := submitAsync(co, tlp.RunConfig{MaxRetries: pt.maxRetries}, tasks)

	// The victim's life. order is its ship order after the merged
	// tasks; unmerged is what the coordinator still has in flight to it
	// when it dies.
	got := victim.await(window)
	victim.answer(got[:pt.merged]...)
	// Every merged result frees one window slot, so the refill arriving
	// means all of them are merged.
	got = victim.await(window + pt.merged)
	if len(got) != window+pt.merged {
		t.Fatalf("victim was shipped %d tasks with %d merged, over its window of %d", len(got), pt.merged, window)
	}
	order := got[pt.merged:]
	unmerged := map[string]bool{}
	for _, m := range order {
		unmerged[m.ID] = true
		if m.StartAttempt != 1 {
			t.Fatalf("task %s first shipped at attempt %d", m.ID, m.StartAttempt)
		}
	}
	frameSize := 0
	if pt.torn > 0 {
		frameSize = victim.tear(order[0], pt.torn)
	}
	victim.conn.Close()

	charged := sortedIDs(order[:charge])
	wantCharged := map[string]bool{}
	for _, id := range charged {
		wantCharged[id] = true
	}

	go survivor.serveAll()
	results := wait(t)

	// Per task: the charged ones carry the loss and one more attempt,
	// and nothing else does.
	var gotCharged, quarantined []string
	for i, r := range results {
		if r == nil {
			t.Fatalf("task %s: no result", tasks[i].ID)
		}
		lost := 0
		for _, e := range r.AttemptErrs {
			if strings.Contains(e.Error(), "worker process lost") {
				lost++
			}
		}
		if lost > 0 {
			gotCharged = append(gotCharged, r.TaskID)
		}
		if r.Quarantined {
			quarantined = append(quarantined, r.TaskID)
		} else if r.Attempts != 1+lost {
			t.Errorf("task %s: %d attempts after %d losses", r.TaskID, r.Attempts, lost)
		}
		if lost > 1 {
			t.Errorf("task %s: one death charged it %d times", r.TaskID, lost)
		}
	}
	if !slices.Equal(gotCharged, charged) {
		t.Errorf("charged an attempt and a worker-loss error:\n %d tasks %v\nwant the first %d unmerged in ship order:\n %v", len(gotCharged), gotCharged, charge, charged)
	}
	var wantQuarantined, wantResumed []string
	if pt.maxRetries == 0 {
		wantQuarantined = charged
	} else {
		for _, id := range charged {
			wantResumed = append(wantResumed, id+"@2")
		}
	}
	if !slices.Equal(quarantined, wantQuarantined) {
		t.Errorf("one death at MaxRetries %d quarantined %d tasks %v, want %v", pt.maxRetries, len(quarantined), quarantined, wantQuarantined)
	}

	// What the survivor was sent: every task the victim left unmerged
	// exactly once — charged ones at attempt 2, the rest at attempt 1
	// as if never shipped — and nothing the victim answered.
	reshipped := map[string]int{}
	var resumed []string // re-shipped at a later attempt than the first
	survivor.mu.Lock()
	for _, m := range survivor.got {
		reshipped[m.ID]++
		if m.StartAttempt != 1 {
			resumed = append(resumed, fmt.Sprintf("%s@%d", m.ID, m.StartAttempt))
		}
	}
	survivor.mu.Unlock()
	sort.Strings(resumed)
	if !slices.Equal(resumed, wantResumed) {
		t.Errorf("re-shipped past attempt 1: %d tasks %v, want %v", len(resumed), resumed, wantResumed)
	}
	victim.mu.Lock()
	for _, m := range victim.got {
		want := 0
		if unmerged[m.ID] && !(pt.maxRetries == 0 && wantCharged[m.ID]) {
			want = 1 // unless the death itself quarantined it
		}
		if reshipped[m.ID] != want {
			t.Errorf("task %s, shipped to the victim, went to the survivor %d times, want %d", m.ID, reshipped[m.ID], want)
		}
	}
	victim.mu.Unlock()

	st := co.Stats()
	if st.WorkerDeaths != 1 {
		t.Errorf("%d worker deaths, want 1", st.WorkerDeaths)
	}
	if want := len(unmerged) - charge; st.Uncharged != want {
		t.Errorf("%d tasks requeued uncharged, want %d", st.Uncharged, want)
	}
	if want := len(unmerged) - len(quarantined); st.Requeued != want {
		t.Errorf("%d tasks requeued, want %d", st.Requeued, want)
	}
	// A torn frame never merges: the victim's slot merged what it
	// answered whole and nothing more.
	if ws := st.PerWorker[0]; ws.Tasks != pt.merged || ws.PeakInFlight != window {
		t.Errorf("victim merged %d results at a peak of %d in flight, want %d and the window of %d", ws.Tasks, ws.PeakInFlight, pt.merged, window)
	}
	return frameSize
}

// deathAfterInit: a worker that dies after the handshake and before
// its first task frame held nothing, so its death requeues nothing and
// the run finishes on the worker that replaces it.
func deathAfterInit(t *testing.T) {
	const n = 40
	co := listenBare(t, Config{Workers: 2, LocalWorkers: 1})
	victim := dialStub(t, co, 1)
	victim.awaitInit()
	victim.conn.Close()
	waitDeaths(t, co, 1)
	survivor := dialStub(t, co, 1)
	go survivor.serveAll()
	results, err := co.Submit(context.Background(), tlp.RunConfig{MaxRetries: 2}, stubTasks(n))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	for i, r := range results {
		if r == nil || r.Err != nil || r.Attempts != 1 {
			t.Fatalf("task %d: %+v", i, r)
		}
	}
	if st := co.Stats(); st.WorkerDeaths != 1 || st.Requeued != 0 || st.Uncharged != 0 {
		t.Errorf("%d deaths, %d requeued (%d uncharged); want 1 and 0 (0)", st.WorkerDeaths, st.Requeued, st.Uncharged)
	}
	if shipped, reshipped := len(victim.await(0)), len(survivor.await(n))-n; shipped != 0 || reshipped != 0 {
		t.Errorf("%d tasks shipped to the victim, %d re-shipped to the survivor; want none", shipped, reshipped)
	}
}

// deathAfterLastResult: a worker that dies once the run's last result
// is merged leaves nothing to requeue, and the next run finishes on the
// survivor alone.
func deathAfterLastResult(t *testing.T) {
	const n = 40
	co := listenBare(t, Config{Workers: 2, LocalWorkers: 1})
	victim := dialStub(t, co, 1)
	survivor := dialStub(t, co, 2)
	go victim.serveAll()
	go survivor.serveAll()
	for run := range 2 {
		results, err := co.Submit(context.Background(), tlp.RunConfig{MaxRetries: 2}, stubTasks(n))
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		for i, r := range results {
			if r == nil || r.Err != nil || r.Attempts != 1 {
				t.Fatalf("run %d, task %d: %+v", run, i, r)
			}
		}
		if run == 0 {
			victim.conn.Close()
			waitDeaths(t, co, 1)
		}
	}
	st := co.Stats()
	if st.WorkerDeaths != 1 || st.Requeued != 0 || st.Uncharged != 0 {
		t.Errorf("%d deaths, %d requeued (%d uncharged); want 1 and 0 (0)", st.WorkerDeaths, st.Requeued, st.Uncharged)
	}
	if shipped := len(victim.await(0)) + len(survivor.await(0)); shipped != 2*n {
		t.Errorf("%d task frames for %d tasks: a task was re-shipped", shipped, 2*n)
	}
	if st.PerWorker[1].Tasks < n {
		t.Errorf("the survivor merged %d results over both runs, fewer than the second run's %d", st.PerWorker[1].Tasks, n)
	}
}

// waitDeaths waits until the coordinator has counted n worker deaths.
func waitDeaths(t *testing.T, co *Coordinator, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); co.Stats().WorkerDeaths < n; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d worker deaths counted, want %d", co.Stats().WorkerDeaths, n)
		}
	}
}

// deathHarness is the seeded layer: real in-process workers (newWorker
// over a dialled socket) on a listen-only coordinator. plan's Crash draw
// for a (task ID, attempt) fates that attempt; when a worker starts a
// fated attempt, the harness drops the worker's connection — no
// goodbye, the coordinator sees only the stream end — waits until the
// coordinator has counted the death, and dials the replacement itself.
// Deaths take turns, so the coordinator is never left without a live
// worker. A death at task start is what keeps the fated task inside the
// charged prefix; transient draws strike only a first attempt, so its
// re-delivery runs. Every worker shares one dataset, built apart from
// the coordinator's, and the process's one intern table — intern order
// is TestDifferentialInternOrder's, on spawned processes.
type deathHarness struct {
	t    *testing.T
	co   *Coordinator
	d    *spam.Dataset
	plan *faults.Plan

	deathMu sync.Mutex // held across a death and its replacement
	closed  bool       // guarded by deathMu
	served  sync.WaitGroup
}

func newDeathHarness(t *testing.T, cfg Config, d *spam.Dataset, plan *faults.Plan) *deathHarness {
	t.Helper()
	h := &deathHarness{t: t, co: listenBare(t, cfg), d: d, plan: plan}
	for live := 1; live <= h.co.cfg.Workers; live++ {
		h.dial(live)
	}
	return h
}

// dial starts one in-process worker and waits until the coordinator
// holds live workers.
func (h *deathHarness) dial(live int) {
	c, err := net.Dial("unix", h.co.Addr())
	if err != nil {
		h.t.Errorf("dial coordinator: %v", err)
		return
	}
	w := newWorker(c)
	w.datasets[h.d.Name] = h.d
	var dead atomic.Bool
	w.onStart = func(m *TaskMsg, _ int) {
		if h.plan.TaskFault(m.ID, m.StartAttempt).Kind == faults.Crash && !dead.Swap(true) {
			h.kill(c)
		}
	}
	h.served.Add(1)
	go func() {
		defer h.served.Done()
		if err := w.serve(); err != nil {
			h.t.Errorf("worker: %v", err)
		}
	}()
	if err := h.co.waitConnected(live, 10*time.Second); err != nil {
		h.t.Errorf("worker never registered: %v", err)
	}
}

// kill drops a worker's connection and replaces the worker. The run
// can finish while it waits — the survivor re-runs the fated task — so
// close waits for it, and a kill after close does nothing.
func (h *deathHarness) kill(c net.Conn) {
	h.deathMu.Lock()
	defer h.deathMu.Unlock()
	if h.closed {
		return
	}
	before := h.co.Stats().WorkerDeaths
	if before == maxChaosDeaths {
		// A fated task charged nothing comes back at the attempt that
		// kills, and would kill every worker it reached.
		h.t.Errorf("more than %d worker deaths: a fated task was re-delivered at its fated attempt", maxChaosDeaths)
		return
	}
	c.Close()
	for deadline := time.Now().Add(10 * time.Second); h.co.Stats().WorkerDeaths == before; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			h.t.Errorf("the coordinator never noticed a dropped connection")
			return
		}
	}
	h.dial(h.co.cfg.Workers)
}

// maxChaosDeaths bounds the deaths of one seeded run, far above what
// the chaos seeds fate (2 each at oracleScale).
const maxChaosDeaths = 8

// close shuts the coordinator down and waits for every worker.
func (h *deathHarness) close() {
	h.deathMu.Lock()
	h.closed = true
	h.co.Close()
	h.deathMu.Unlock()
	h.served.Wait()
}

// chaosRun executes one DC cluster interpretation on the seeded death
// harness and returns it with the coordinator's accounting. The window
// is pinned to one task, so a death interrupts exactly its fated task.
func chaosRun(t *testing.T, seed int64, reEntry bool) (*spam.Interpretation, Stats) {
	t.Helper()
	p := airportParams("DC")
	wd, err := spam.NewDataset(p)
	if err != nil {
		t.Fatalf("dataset: %v", err)
	}
	h := newDeathHarness(t, Config{Workers: 2, LocalWorkers: 1, shipWindow: 1}, wd,
		faults.New(faults.Config{Seed: seed, CrashRate: 0.05}))
	defer h.close()
	if err := h.co.RegisterDataset(AirportSpec(p)); err != nil {
		t.Fatalf("register: %v", err)
	}
	d, err := spam.NewDataset(p)
	if err != nil {
		t.Fatalf("dataset: %v", err)
	}
	opt := spam.InterpretOptions{Workers: 2, MaxRetries: 2, ReEntry: reEntry}
	clusterOpt := opt
	clusterOpt.Runner = NewRunner(h.co, opt)
	in, err := d.Interpret(clusterOpt)
	if err != nil {
		t.Fatalf("cluster interpret under chaos: %v", err)
	}
	// Exactly-once: every phase's merged results carry each task once —
	// no nils (lost), no duplicate IDs (double delivery).
	for _, ph := range in.Phases {
		seen := map[string]bool{}
		for _, r := range ph.Results {
			if r == nil {
				t.Fatalf("phase %s: lost task result", ph.Phase)
			}
			if seen[r.TaskID] {
				t.Fatalf("phase %s: task %s delivered twice", ph.Phase, r.TaskID)
			}
			seen[r.TaskID] = true
		}
		if len(seen) != ph.Tasks {
			t.Fatalf("phase %s: %d distinct results for %d tasks", ph.Phase, len(seen), ph.Tasks)
		}
	}
	st := h.co.Stats()
	t.Logf("seed %d: %d worker deaths, %d tasks requeued (%d uncharged)", seed, st.WorkerDeaths, st.Requeued, st.Uncharged)
	return in, st
}

// TestClusterChaosKillReproducible kills workers mid-run
// (deterministically, by the seeded harness's plan) and asserts the
// merged RunReport accounting is byte-reproducible across two
// identical runs, with every task delivered exactly once.
func TestClusterChaosKillReproducible(t *testing.T) {
	in1, s1 := chaosRun(t, 7, false)
	in2, s2 := chaosRun(t, 7, false)
	f1, f2 := phaseFingerprint(in1), phaseFingerprint(in2)
	if s1.WorkerDeaths < 1 {
		t.Fatalf("chaos plan killed no workers (stats %+v); raise the rate or change the seed", s1)
	}
	if f1 != f2 {
		t.Errorf("chaos run not reproducible:\nrun 1:\n%s\nrun 2:\n%s", f1, f2)
	}
	if s1.WorkerDeaths != s2.WorkerDeaths || s1.Requeued != s2.Requeued {
		t.Errorf("recovery accounting differs: run 1 %+v, run 2 %+v", s1, s2)
	}
	if !strings.Contains(f1, "worker process lost") {
		t.Errorf("report does not show the process loss:\n%s", f1)
	}
}

// reEntryChaosSeed is a kill plan that fates a re-entry task of DC at
// oracleScale, so a worker dies running an LCC re-entry task.
const reEntryChaosSeed = 42

// TestDifferentialClusterChaosReEntry runs the kill plan with re-entry
// on, so an LCC re-entry task is among the casualties, and holds the
// merged interpretation to a crash-free in-process run of the same
// dataset: per phase, the same multiset of task IDs — a lost merge
// removes one, a duplicated merge adds one — and the same outputs.
func TestDifferentialClusterChaosReEntry(t *testing.T) {
	in, st := chaosRun(t, reEntryChaosSeed, true)
	d, err := spam.NewDataset(airportParams("DC"))
	if err != nil {
		t.Fatalf("dataset: %v", err)
	}
	ref, err := d.Interpret(spam.InterpretOptions{Workers: 2, ReEntry: true})
	if err != nil {
		t.Fatalf("crash-free reference: %v", err)
	}
	if len(in.Phases) != len(ref.Phases) {
		t.Fatalf("%d phases, reference has %d", len(in.Phases), len(ref.Phases))
	}
	requeuedReEntry := 0
	for pi, ph := range in.Phases {
		got, want := map[string]int{}, map[string]int{}
		for _, r := range ph.Results {
			got[r.TaskID]++
			if strings.HasPrefix(r.TaskID, "lccr") && lostToDeath(r) {
				requeuedReEntry++
			}
		}
		for _, r := range ref.Phases[pi].Results {
			want[r.TaskID]++
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("phase %s: merged task IDs differ from the crash-free run:\ngot  %v\nwant %v", ph.Phase, got, want)
		}
	}
	if !spam.SameOutputs(ref, in) {
		t.Error("outputs differ from the crash-free run")
	}
	if st.WorkerDeaths < 1 || st.Requeued < 1 {
		t.Errorf("kill plan exercised no recovery: %d worker deaths, %d requeues", st.WorkerDeaths, st.Requeued)
	}
	if requeuedReEntry < 1 {
		t.Errorf("no re-entry task was requeued by a death (stats %+v); pick another reEntryChaosSeed", st)
	}
	if st.TasksCompleted < in.Completeness.Tasks {
		t.Errorf("coordinator merged %d results for %d tasks", st.TasksCompleted, in.Completeness.Tasks)
	}
}

// lostToDeath reports whether a worker death was charged to the task:
// it was in flight on a worker that died, and was requeued.
func lostToDeath(r *tlp.Result) bool {
	for _, e := range r.AttemptErrs {
		if strings.Contains(e.Error(), "worker process lost") {
			return true
		}
	}
	return false
}
