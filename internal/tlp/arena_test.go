package tlp

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"spampsm/internal/faults"
	"spampsm/internal/ops5"
	"spampsm/internal/rete"
	"spampsm/internal/symtab"
)

// arenaProg exercises every arena object: joins, a negative condition
// whose join results block and unblock, modifies that retract and
// re-create token trees, and an external that a test can make
// misbehave.
const arenaProg = `
(literalize item n k)
(literalize blocker n)
(literalize out n)
(literalize count n limit)
(external poke)
(p blocked (item ^n <n> ^k <k>) - (blocker ^n <n>) --> (make out ^n <n>))
(p pair (item ^n <a> ^k <k>) (item ^n { <b> > <a> } ^k <k>) --> (call poke <a> <b>))
(p step (count ^n <n> ^limit > <n>) (blocker ^n <b>)
   --> (modify 1 ^n (compute <n> + 1)) (modify 2 ^n (compute <b> + 1)))
`

// arenaTask builds a task over arenaProg with `size` items. poke, when
// non-nil, runs inside the engine's Run on every pair firing and gets
// the engine. built, when non-nil, receives every engine the task
// builds.
func arenaTask(t testing.TB, prog *ops5.Program, id string, size int, poke func(*ops5.Engine), built *[]*ops5.Engine) *Task {
	build := func(s *ops5.Scratch) (*ops5.Engine, error) {
		e, err := ops5.NewEngine(prog, ops5.WithScratch(s))
		if err != nil {
			return nil, err
		}
		e.Register("poke", func([]symtab.Value) (symtab.Value, float64, error) {
			if poke != nil {
				poke(e)
			}
			return symtab.Nil, 10, nil
		})
		for i := 0; i < size; i++ {
			if _, err := e.Assert("item", map[string]symtab.Value{"n": symtab.Int(int64(i)), "k": symtab.Int(int64(i % 3))}); err != nil {
				return nil, err
			}
		}
		if _, err := e.Assert("blocker", map[string]symtab.Value{"n": symtab.Int(1)}); err != nil {
			return nil, err
		}
		if _, err := e.Assert("count", map[string]symtab.Value{"n": symtab.Int(0), "limit": symtab.Int(int64(size))}); err != nil {
			return nil, err
		}
		if built != nil {
			*built = append(*built, e)
		}
		return e, nil
	}
	return &Task{
		ID:        id,
		EstSize:   float64(size),
		Extract:   arenaClasses,
		Build:     func() (*ops5.Engine, error) { return build(nil) },
		BuildWith: build,
	}
}

// arenaClasses is every class of arenaProg: what an arena task extracts.
var arenaClasses = []string{"item", "blocker", "out", "count"}

func parseArenaProg(t testing.TB) *ops5.Program {
	prog, err := ops5.Parse(arenaProg)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// sameRun asserts two results of the same task are identical in every
// simulated quantity and in final working memory — read through
// Result.WMEs, which serves the snapshot taken before the engine was
// settled when there is one (got) and the engine otherwise (a reference
// task that names no Extract classes).
func sameRun(t *testing.T, got, want *Result) {
	t.Helper()
	if got.Err != nil || want.Err != nil {
		t.Fatalf("task %s: errors %v / %v", got.TaskID, got.Err, want.Err)
	}
	if got.Stats != want.Stats {
		t.Errorf("task %s: stats %+v != reference %+v", got.TaskID, got.Stats, want.Stats)
	}
	if !reflect.DeepEqual(got.Log, want.Log) {
		t.Errorf("task %s: cost log differs from reference", got.TaskID)
	}
	if g, w := got.Engine.MatchCounters(), want.Engine.MatchCounters(); g != w {
		t.Errorf("task %s: match counters %+v != reference %+v", got.TaskID, g, w)
	}
	for _, class := range arenaClasses {
		g, w := got.WMEs(class), want.WMEs(class)
		if len(g) != len(w) {
			t.Fatalf("task %s: %d %s WMEs, want %d", got.TaskID, len(g), class, len(w))
		}
		for i := range g {
			if g[i].TimeTag != w[i].TimeTag || g[i].String() != w[i].String() {
				t.Errorf("task %s: %s WME %d: %d %s, want %d %s", got.TaskID, class, i, g[i].TimeTag, g[i], w[i].TimeTag, w[i])
			}
		}
	}
}

// TestUnsettledAttemptLeavesNextTaskFresh: an attempt that panics, is
// interrupted mid-run, crashes or fails its build must not be settled —
// its engine may be mid-operation — and the tasks the same worker runs
// next, on fresh slabs, must still be identical, working memory and
// time tags included, to tasks run on engines that own their memory.
// The abandoned engine keeps the working memory it drew: the next task
// neither reads nor rewrites it.
func TestUnsettledAttemptLeavesNextTaskFresh(t *testing.T) {
	prog := parseArenaProg(t)
	sizes := []int{9, 12, 7, 10, 11}
	var ref []*Task
	for i, size := range sizes {
		id := fmt.Sprintf("ok%d", i)
		ref = append(ref, &Task{ID: id, Build: arenaTask(t, prog, id, size, nil, nil).Build})
	}
	want, err := (&Pool{Workers: 1}).Run(ref)
	if err != nil {
		t.Fatal(err)
	}

	// One worker's arena, threaded through every attempt below.
	scratch := &ops5.Scratch{}
	clean := &RunConfig{}
	var engines []*ops5.Engine
	settled := func(e *ops5.Engine) bool {
		_, err := e.Run(0)
		return errors.Is(err, ops5.ErrSettled)
	}
	dump := func(e *ops5.Engine) string {
		var b strings.Builder
		e.DumpWM(&b)
		return b.String()
	}
	var abandoned *ops5.Engine // the last failed attempt's engine
	var abandonedWM string
	ok := func(i int) {
		t.Helper()
		id := fmt.Sprintf("ok%d", i)
		got := clean.attempt(context.Background(), arenaTask(t, prog, id, sizes[i], nil, &engines), 0, i, 1, scratch)
		sameRun(t, got, want[i])
		e := engines[len(engines)-1]
		if got.Engine != e || !settled(e) {
			t.Errorf("task %s: a clean attempt's engine must be attached and settled", id)
		}
		if got.Snapshot == nil || e.Memory().Size() != 0 || len(e.WMEs("item")) != 0 {
			t.Errorf("task %s: a settled borrowing engine must have handed its rows to the snapshot and its working memory back (%d WMEs still live)", id, e.Memory().Size())
		}
		if abandoned != nil && dump(abandoned) != abandonedWM {
			t.Errorf("task %s rewrote the working memory of the unsettled attempt before it", id)
		}
	}
	failed := func(r *Result, is func(error) bool, what string) {
		t.Helper()
		if r.Err == nil || !is(r.Err) {
			t.Fatalf("%s: err %v", what, r.Err)
		}
		abandoned = engines[len(engines)-1]
		if settled(abandoned) {
			t.Errorf("%s: the failed attempt's engine was settled", what)
		}
		if abandonedWM = dump(abandoned); abandonedWM == "" {
			t.Errorf("%s: the failed attempt's engine holds no working memory", what)
		}
	}

	ok(0)
	pokes := 0
	r := clean.attempt(context.Background(), arenaTask(t, prog, "panics", 12, func(*ops5.Engine) {
		if pokes++; pokes == 5 {
			panic("boom mid-run")
		}
	}, &engines), 0, 0, 1, scratch)
	failed(r, func(err error) bool { var pe *PanicError; return errors.As(err, &pe) }, "panicking task")
	ok(1)
	r = clean.attempt(context.Background(), arenaTask(t, prog, "interrupted", 12, func(e *ops5.Engine) { e.Interrupt() }, &engines), 0, 0, 1, scratch)
	failed(r, func(err error) bool { return errors.Is(err, ErrTimeout) }, "interrupted task")
	ok(2)
	crashing := &RunConfig{Faults: faults.Config{Seed: 11, CrashRate: 1}}
	r = crashing.attempt(context.Background(), arenaTask(t, prog, "crashes", 12, nil, &engines), 0, 0, 1, scratch)
	failed(r, func(err error) bool { return errors.Is(err, ErrWorkerCrash) }, "crashing task")
	ok(3)
	// An injected build fault strikes before any engine exists.
	failing := &RunConfig{Faults: faults.Config{Seed: 11, BuildFailRate: 1}}
	built := len(engines)
	r = failing.attempt(context.Background(), arenaTask(t, prog, "build-fails", 8, nil, &engines), 0, 0, 1, scratch)
	if !errors.Is(r.Err, faults.ErrInjected) || len(engines) != built {
		t.Fatalf("build-fault task: err %v, %d engines built", r.Err, len(engines)-built)
	}
	ok(4)
}

// TestLongLivedWorkerArenaIsBounded: on a worker that lives as long as
// the process, one large task must not pin its peak arena forever. The
// arena a pool's worker holds after a large task and then one trim
// window of small ones is at the small tasks' scale.
func TestLongLivedWorkerArenaIsBounded(t *testing.T) {
	prog := parseArenaProg(t)
	p := &Pool{Workers: 1}
	defer p.Close()
	run := func(id string, size int) int64 {
		t.Helper()
		rs, err := p.Submit(context.Background(), RunConfig{}, []*Task{arenaTask(t, prog, id, size, nil, nil)})
		if err != nil || rs[0].Err != nil {
			t.Fatalf("task %s: %v / %v", id, err, rs[0].Err)
		}
		a := p.Stats().Arenas
		if len(a) != 1 {
			t.Fatalf("arena stats %+v, want one worker arena", a)
		}
		return a[0].ArenaBytes
	}
	// Every reading below is taken one small task after the state it is
	// about: the large task's chunks stay for a window after it.
	run("small", 6)
	small := run("small again", 6)
	if small == 0 {
		t.Fatal("the worker's arena is not engaged")
	}
	run("large", 120)
	large := run("small0", 6)
	if large < 20*small {
		t.Fatalf("large task's arena %d B is not well above a small task's %d B; the test is vacuous", large, small)
	}
	var after int64
	for i := 1; i <= rete.TrimWindow; i++ {
		after = run(fmt.Sprintf("small%d", i), 6)
	}
	// The bound is Scratch.Trim's: twice what the largest of the last
	// window's tasks drew.
	if after > 2*small {
		t.Errorf("worker still holds %d B %d small tasks after the large one (small-task arena %d B, large-task arena %d B)", after, rete.TrimWindow, small, large)
	}
}

// TestScratchWindowTrimSteadyState: a long-lived executor that trims
// after every task and alternates a small and an ordinary task must
// stop touching the heap for slabs once it has seen both — the arena it
// holds is the same after every task from one trim window on. Trimming
// to the last task alone dropped the ordinary task's chunks after every
// small one and regrew them a task later.
func TestScratchWindowTrimSteadyState(t *testing.T) {
	prog := parseArenaProg(t)
	scratch := &ops5.Scratch{}
	pool := &RunConfig{}
	var slabs int
	var bytes int64
	window := rete.TrimWindow
	for i := 0; i < 2*window+8; i++ {
		size := 6
		if i%2 == 1 {
			size = 40
		}
		id := fmt.Sprintf("t%d", i)
		if r := pool.attempt(context.Background(), arenaTask(t, prog, id, size, nil, nil), 0, i, 1, scratch); r.Err != nil {
			t.Fatal(r.Err)
		}
		scratch.Trim()
		s, b := scratch.Arena()
		if i == window {
			slabs, bytes = s, b
		}
		if i > window && (s != slabs || b != bytes) {
			t.Fatalf("after task %d the arena holds %d chunks / %d B, after task %d it held %d / %d: slabs were dropped or regrown in steady state", i, s, b, window, slabs, bytes)
		}
	}
}

// TestArenaResultsOutliveWorkerReuse: what a task returns is its own.
// A Result's Stats and Log must read the same after the worker that
// produced it has run a trim window of further tasks on the same arena
// — drawing the cost-log buffer, the seed vectors and the match state
// the task gave back — as when it returned. That holds for a clean run
// and for every way a run can end early: a firing budget, an injected
// crash, a panic and an interrupt, whose logs are exactly as long as
// the firings they charge.
func TestArenaResultsOutliveWorkerReuse(t *testing.T) {
	prog := parseArenaProg(t)
	p := &Pool{Workers: 1}
	defer p.Close()
	run := func(cfg RunConfig, task *Task) *Result {
		t.Helper()
		rs, err := p.Submit(context.Background(), cfg, []*Task{task})
		if err != nil {
			t.Fatal(err)
		}
		return rs[0]
	}
	type view struct {
		stats ops5.RunStats
		log   ops5.CostLog
	}
	kept, was := map[string]*Result{}, map[string]view{}
	keep := func(name string, r *Result) {
		t.Helper()
		if (name == "clean") != (r.Err == nil) {
			t.Fatalf("%s: err %v", name, r.Err)
		}
		if r.Log == nil || r.Stats.Firings == 0 {
			t.Fatalf("%s: no firings logged; the test is vacuous", name)
		}
		if c := r.Log.Cycles; len(c) != r.Stats.Firings || cap(c) != len(c) {
			t.Errorf("%s: %d cycles logged (capacity %d) for %d firings", name, len(c), cap(c), r.Stats.Firings)
		}
		log := *r.Log
		log.Cycles = slices.Clone(log.Cycles)
		kept[name], was[name] = r, view{r.Stats, log}
	}
	pokes := 0
	keep("budget", run(RunConfig{FiringBudget: 5}, arenaTask(t, prog, "budget", 30, nil, nil)))
	keep("crash", run(RunConfig{Faults: faults.Config{Seed: 11, CrashRate: 1}}, arenaTask(t, prog, "crash", 30, nil, nil)))
	keep("panic", run(RunConfig{}, arenaTask(t, prog, "panic", 30, func(*ops5.Engine) {
		if pokes++; pokes == 40 {
			panic("boom mid-run")
		}
	}, nil)))
	keep("interrupt", run(RunConfig{}, arenaTask(t, prog, "interrupt", 30, func(e *ops5.Engine) { e.Interrupt() }, nil)))
	// Last, so that the next engine on the worker is the first to reuse
	// the buffer its engine parked.
	keep("clean", run(RunConfig{}, arenaTask(t, prog, "clean", 30, nil, nil)))
	for i := 0; i < rete.TrimWindow+8; i++ {
		size := []int{6, 40, 60}[i%3]
		if r := run(RunConfig{}, arenaTask(t, prog, fmt.Sprintf("later%d", i), size, nil, nil)); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	for name, r := range kept {
		if got := (view{r.Stats, *r.Log}); !reflect.DeepEqual(got, was[name]) {
			t.Errorf("%s: the result changed while its worker ran %d more tasks:\nnow %+v\nwas %+v", name, rete.TrimWindow+8, got, was[name])
		}
	}
}
