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
// instantiated from one shared compiled template per program must be
// observably identical to one whose every engine compiles its program
// privately, under both matchers — dispatching (production's template
// vs a fresh compile) and sweeping (one swept template vs the ops5
// reference, which compiles per engine).
func TestSPAMDifferentialTemplateVsFreshCompile(t *testing.T) {
	for _, naive := range []bool{false, true} {
		name := "indexed"
		if naive {
			name = "naive"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			d := smallDC(t)
			shared, fresh := engineBuilder(templateEngines), engineBuilder(freshEngines)
			if naive {
				shared, fresh = sweptTemplates(t, d), referenceEngines
			}
			freshIn := interpretBuilding(t, d, fresh)
			sharedIn := interpretBuilding(t, d, shared)
			compareInterpretations(t, "fresh-compiled", freshIn, "template-instantiated", sharedIn)
		})
	}
}

// TestConcurrentBuildModesOneDataset is the property a multi-tenant
// server needs of one cached dataset: goroutines interpreting it at
// once, capturing match forests and not, beside its reference twin
// (referenceOf) doing the same over its own store, all produce the
// production run's outputs, firings and instruction counts. Under -race
// it also proves the per-Program variant cache (capturing and plain
// templates instantiated side by side, reference engines compiling
// privately), the fragment-seed cache and the predicate memo tolerate
// concurrent runs that do and do not use them.
func TestConcurrentBuildModesOneDataset(t *testing.T) {
	d := smallDC(t)
	interpret := func(d *Dataset) (*Interpretation, error) {
		return d.Interpret(InterpretOptions{Workers: 2, ReEntry: true})
	}
	want, err := interpret(d)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceOf(d)
	runs := []struct {
		name string
		d    *Dataset
	}{
		{"production", d}, {"production+capture", capturing(d)},
		{"reference", ref}, {"reference+capture", capturing(ref)},
	}
	got := make([]*Interpretation, len(runs))
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i, run := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = interpret(run.d)
		}()
	}
	wg.Wait()
	for i, run := range runs {
		if errs[i] != nil {
			t.Fatalf("%s: %v", run.name, errs[i])
		}
		if !SameOutputs(want, got[i]) {
			t.Errorf("%s: outputs differ from the production run", run.name)
		}
		compareInterpretations(t, "production", want, run.name, got[i])
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
				in, err := capturing(d).Interpret(InterpretOptions{ReEntry: true, Runner: r})
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
