package spam

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"spampsm/internal/ops5"
	"spampsm/internal/rete"
	"spampsm/internal/scene"
	"spampsm/internal/tlp"
)

// Full-SPAM differential oracle for the compile-once template path: a
// complete four-phase interpretation whose ~1k task engines are
// instantiated from the datasets' shared compiled templates (the
// default, here additionally exercising parallel prebuild) must be
// observably identical to one whose every engine recompiles its
// program from scratch (UseFreshCompile), under both matchers.
func TestSPAMDifferentialTemplateVsFreshCompile(t *testing.T) {
	for _, naive := range []bool{false, true} {
		name := "indexed"
		if naive {
			name = "naive"
		}
		t.Run(name, func(t *testing.T) {
			run := func(fresh, prebuild bool) *Interpretation {
				t.Helper()
				UseNaiveMatch(naive)
				UseFreshCompile(fresh)
				defer UseNaiveMatch(false)
				defer UseFreshCompile(false)
				d := smallDC(t)
				in, err := d.Interpret(InterpretOptions{Workers: 2, Prebuild: prebuild})
				if err != nil {
					t.Fatal(err)
				}
				return in
			}
			fresh := run(true, false)
			shared := run(false, true)
			compareInterpretations(t, "fresh-compiled", fresh, "template-instantiated", shared)
		})
	}
}

// TestConcurrentTaskBuildWithMatcherToggles builds and runs one
// dataset's RTF task queue on a parallel pool while another goroutine
// flips UseNaiveMatch mid-run. Each task engine instantiates whichever
// cached template variant the flag selects at build time; since the
// matchers are differentially identical, every task must reproduce the
// reference statistics regardless of which variant it drew. Under
// -race this also proves the per-Program variant cache and the shared
// templates tolerate concurrent instantiation.
func TestConcurrentTaskBuildWithMatcherToggles(t *testing.T) {
	d := smallDC(t)
	mkTasks := func() []*tlp.Task {
		return BuildRTFTasks(d.KB, d.Store, d.Progs.RTF, 3, false)
	}

	UseNaiveMatch(false)
	refResults, err := (&tlp.Pool{Workers: 1}).Run(mkTasks())
	if err != nil {
		t.Fatal(err)
	}
	if err := tlp.FirstError(refResults); err != nil {
		t.Fatal(err)
	}
	ref := map[string]*tlp.Result{}
	for _, r := range refResults {
		ref[r.TaskID] = r
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			UseNaiveMatch(i%2 == 0)
		}
	}()

	got, err := (&tlp.Pool{Workers: 4, DropEngines: true}).Run(mkTasks())
	stop.Store(true)
	wg.Wait()
	UseNaiveMatch(false)
	if err != nil {
		t.Fatal(err)
	}
	if err := tlp.FirstError(got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(refResults) {
		t.Fatalf("got %d results, want %d", len(got), len(refResults))
	}
	for _, r := range got {
		want, ok := ref[r.TaskID]
		if !ok {
			t.Fatalf("task %s missing from reference run", r.TaskID)
		}
		if r.Stats != want.Stats {
			t.Errorf("task %s: stats %+v != reference %+v", r.TaskID, r.Stats, want.Stats)
		}
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
				in, err := d.Interpret(InterpretOptions{ReEntry: true, Capture: true, Runner: r})
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
