package spam

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"spampsm/internal/ops5"
	"spampsm/internal/rete"
	"spampsm/internal/scene"
	"spampsm/internal/tlp"
)

// Full-SPAM differential oracle for the compile-once template path: a
// complete four-phase interpretation whose ~1k task engines are
// instantiated from the datasets' shared compiled templates (the
// default) must be observably identical to one whose every engine
// recompiles its program from scratch (BuildMode.FreshCompile), under
// both matchers.
func TestSPAMDifferentialTemplateVsFreshCompile(t *testing.T) {
	for _, naive := range []bool{false, true} {
		name := "indexed"
		if naive {
			name = "naive"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			fresh := interpretUnder(t, tlp.BuildMode{NaiveMatch: naive, FreshCompile: true})
			shared := interpretUnder(t, tlp.BuildMode{NaiveMatch: naive})
			compareInterpretations(t, "fresh-compiled", fresh, "template-instantiated", shared)
		})
	}
}

// TestConcurrentBuildModesOneDataset is the property a multi-tenant
// server needs of a per-run build mode: goroutines interpreting the
// same cached Dataset at once, each under a different mode — the
// production paths, each reference bit alone, all three together — all
// produce the zero-mode outputs, firings and instruction counts. Under
// -race it also proves the per-Program variant cache (indexed and naive
// templates instantiated side by side), the fragment-seed cache and the
// predicate memo tolerate concurrent runs that do and do not use them.
func TestConcurrentBuildModesOneDataset(t *testing.T) {
	d := smallDC(t)
	interpret := func(mode tlp.BuildMode) (*Interpretation, error) {
		return d.Interpret(InterpretOptions{Workers: 2, ReEntry: true, Build: mode})
	}
	ref, err := interpret(tlp.BuildMode{})
	if err != nil {
		t.Fatal(err)
	}
	modes := []tlp.BuildMode{
		{},
		{NaiveMatch: true},
		{FreshCompile: true},
		{ReferenceGeo: true},
		{NaiveMatch: true, FreshCompile: true, ReferenceGeo: true},
	}
	got := make([]*Interpretation, len(modes))
	errs := make([]error, len(modes))
	var wg sync.WaitGroup
	for i, mode := range modes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = interpret(mode)
		}()
	}
	wg.Wait()
	for i, mode := range modes {
		name := fmt.Sprintf("%+v", mode)
		if errs[i] != nil {
			t.Fatalf("%s: %v", name, errs[i])
		}
		if !SameOutputs(ref, got[i]) {
			t.Errorf("%s: outputs differ from the zero-mode run", name)
		}
		compareInterpretations(t, "zero-mode", ref, name, got[i])
	}
}

// taskRecord is what one task's run left behind, as the differential
// oracle below compares it.
type taskRecord struct {
	stats    ops5.RunStats
	counters rete.Counters
	log      ops5.CostLog
}

// recordingRunner runs every queue on its own pool and records each
// task's statistics, match counters and cost log as the pool returned
// them. With owned set it first rewrites every task so that its engine
// is built without the worker's arena (BuildWith(nil)): the reference
// in which nothing is ever borrowed, settled or recycled.
type recordingRunner struct {
	pool  tlp.Pool
	owned bool
	tasks map[string]taskRecord
	// misrouted counts engines that came back settled from the owned
	// run, or unsettled from the borrowing one.
	misrouted int
}

func (r *recordingRunner) RunTasks(ctx context.Context, tasks []*tlp.Task) ([]*tlp.Result, error) {
	if r.owned {
		for i, task := range tasks {
			own := *task
			own.BuildWith = func(*ops5.Scratch) (*ops5.Engine, error) { return task.BuildWith(nil) }
			tasks[i] = &own
		}
	}
	results, err := r.pool.RunContext(ctx, tasks)
	for _, res := range results {
		if res == nil || res.Err != nil || res.Engine == nil {
			continue
		}
		if r.tasks == nil {
			r.tasks = map[string]taskRecord{}
		}
		// Re-entry tasks of different rounds never share an ID.
		r.tasks[res.TaskID] = taskRecord{res.Stats, res.Engine.MatchCounters(), *res.Log}
		if _, err := res.Engine.Run(0); errors.Is(err, ops5.ErrSettled) == r.owned {
			r.misrouted++
		}
	}
	return results, err
}

// TestSPAMDifferentialTemplateRecycledVsOwned is the arena oracle: an
// interpretation whose task engines borrow their worker's match arena —
// settled at task end, recycled by the next task, whatever phase and
// program drew from it last — must be byte-identical to one whose every
// engine owns its memory: same outputs, and per task the same run
// statistics, Rete counters and cost log (capture on, so the captured
// activation forests are compared too). SF, DC and MOFF with re-entry,
// on one worker and on four.
func TestSPAMDifferentialTemplateRecycledVsOwned(t *testing.T) {
	for _, p := range []scene.Params{scene.SF, scene.DC, scene.MOFF} {
		d, err := NewDataset(p.Scale(0.4))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			run := func(owned bool) (*Interpretation, *recordingRunner) {
				t.Helper()
				r := &recordingRunner{pool: tlp.Pool{Workers: workers}, owned: owned}
				in, err := d.Interpret(InterpretOptions{ReEntry: true, Build: tlp.BuildMode{Capture: true}, Runner: r})
				if err != nil {
					t.Fatal(err)
				}
				return in, r
			}
			ref, refRun := run(true)
			got, gotRun := run(false)
			name := fmt.Sprintf("%s/workers=%d", p.Name, workers)
			if !SameOutputs(got, ref) {
				t.Errorf("%s: recycled-arena outputs differ from owned-memory outputs", name)
			}
			compareInterpretations(t, name+" recycled", got, "owned", ref)
			if gotRun.misrouted+refRun.misrouted != 0 {
				t.Fatalf("%s: %d borrowing engines came back unsettled, %d owning engines settled", name, gotRun.misrouted, refRun.misrouted)
			}
			if len(gotRun.tasks) != len(refRun.tasks) || len(refRun.tasks) < 4 {
				t.Fatalf("%s: %d recycled task records, %d owned", name, len(gotRun.tasks), len(refRun.tasks))
			}
			for id, want := range refRun.tasks {
				rec := gotRun.tasks[id]
				if rec.stats != want.stats {
					t.Errorf("%s: task %s: run stats %+v, owned %+v", name, id, rec.stats, want.stats)
				}
				if rec.counters != want.counters {
					t.Errorf("%s: task %s: rete counters %+v, owned %+v", name, id, rec.counters, want.counters)
				}
				if !reflect.DeepEqual(rec.log, want.log) {
					t.Errorf("%s: task %s: cost logs differ", name, id)
				}
			}
		}
	}
}
