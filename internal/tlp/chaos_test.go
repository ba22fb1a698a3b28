package tlp

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"spampsm/internal/faults"
	"spampsm/internal/ops5"
	"spampsm/internal/symtab"
)

// panicTask builds a task whose engine panics mid-run via an external.
func panicTask(id string) *Task {
	return &Task{
		ID: id,
		Build: func() (*ops5.Engine, error) {
			prog, err := ops5.Parse(`
(literalize a x)
(external blow)
(p r (a) --> (call blow))
`)
			if err != nil {
				return nil, err
			}
			e, err := ops5.NewEngine(prog)
			if err != nil {
				return nil, err
			}
			e.Register("blow", func(args []symtab.Value) (symtab.Value, float64, error) {
				panic("rhs bug: " + id)
			})
			_, err = e.Assert("a", nil)
			return e, err
		},
	}
}

// runawayTask builds a task that never quiesces: each firing re-arms
// the next.
func runawayTask(id string) *Task {
	return &Task{
		ID: id,
		Build: func() (*ops5.Engine, error) {
			prog, err := ops5.Parse(`
(literalize count n)
(p spin (count ^n <n>) --> (modify 1 ^n (compute <n> + 1)))
`)
			if err != nil {
				return nil, err
			}
			e, err := ops5.NewEngine(prog)
			if err != nil {
				return nil, err
			}
			_, err = e.Assert("count", map[string]symtab.Value{"n": symtab.Int(0)})
			return e, err
		},
	}
}

func TestPanicRecoveredIntoResult(t *testing.T) {
	tasks := []*Task{countTask("ok1", 3), panicTask("bomb"), countTask("ok2", 3)}
	results, err := (&Pool{Workers: 2}).Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	var pe *PanicError
	for _, r := range results {
		if r.TaskID != "bomb" {
			if r.Err != nil {
				t.Errorf("healthy task %s failed: %v", r.TaskID, r.Err)
			}
			continue
		}
		if r.Err == nil {
			t.Fatal("panicking task reported no error")
		}
		if !errors.As(r.Err, &pe) {
			t.Fatalf("error is not a PanicError: %v", r.Err)
		}
		if len(pe.Stack) == 0 {
			t.Error("panic stack not captured")
		}
		if !r.Quarantined {
			t.Error("failed task with no retries must be quarantined")
		}
	}
	if pe == nil {
		t.Fatal("no result for the panicking task")
	}
}

func TestBuildPanicRecovered(t *testing.T) {
	boom := &Task{ID: "build-bomb", Build: func() (*ops5.Engine, error) {
		panic("builder bug")
	}}
	results, err := (&Pool{Workers: 1}).Run([]*Task{boom})
	if err != nil {
		t.Fatal(err)
	}
	var pe *PanicError
	if !errors.As(results[0].Err, &pe) {
		t.Fatalf("build panic not recovered: %v", results[0].Err)
	}
}

func TestTaskTimeoutInterruptsRunaway(t *testing.T) {
	p := &Pool{Workers: 1}
	results, err := p.Submit(context.Background(), RunConfig{TaskTimeout: 30 * time.Millisecond}, []*Task{runawayTask("spin")})
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if !errors.Is(r.Err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", r.Err)
	}
	// Satellite: partial stats must be attached to the failed result.
	if r.Stats.Firings == 0 || r.Log == nil || len(r.Log.Cycles) == 0 {
		t.Errorf("partial stats/log missing from timed-out task: firings=%d log=%v", r.Stats.Firings, r.Log)
	}
}

func TestFiringBudgetExceeded(t *testing.T) {
	p := &Pool{Workers: 1}
	results, err := p.Submit(context.Background(), RunConfig{FiringBudget: 5}, []*Task{runawayTask("spin"), countTask("small", 3)})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[0].Err, ErrBudgetExceeded) {
		t.Fatalf("runaway err = %v, want ErrBudgetExceeded", results[0].Err)
	}
	if results[0].Stats.Firings != 5 {
		t.Errorf("runaway fired %d, want 5", results[0].Stats.Firings)
	}
	// A task that quiesces under the budget is unaffected.
	if results[1].Err != nil {
		t.Errorf("small task failed: %v", results[1].Err)
	}
}

// TestFiringBudgetAtQuiescence: a task that reaches quiescence on
// exactly its last budgeted firing succeeds. Its fired instantiation
// stays in the conflict set (refraction: its WME is never removed), and
// that must not read as work left to do.
func TestFiringBudgetAtQuiescence(t *testing.T) {
	once := func() *Task {
		return &Task{ID: "once", Build: func() (*ops5.Engine, error) {
			prog, err := ops5.Parse(`
(literalize a x)
(literalize b y)
(p once (a ^x 1) --> (make b ^y 2))
`)
			if err != nil {
				return nil, err
			}
			e, err := ops5.NewEngine(prog)
			if err != nil {
				return nil, err
			}
			_, err = e.Assert("a", map[string]symtab.Value{"x": symtab.Int(1)})
			return e, err
		}}
	}
	for _, budget := range []int{0, 1, 2} {
		results, err := (&Pool{Workers: 1}).Submit(context.Background(), RunConfig{FiringBudget: budget}, []*Task{once()})
		if err != nil {
			t.Fatal(err)
		}
		if r := results[0]; r.Err != nil || r.Stats.Firings != 1 {
			t.Errorf("budget %d: %d firings, err %v; want 1 firing and success", budget, r.Stats.Firings, r.Err)
		}
	}
}

func TestTransientFaultsRecoverOnRetry(t *testing.T) {
	plan := faults.Config{Seed: 1990, CrashRate: 0.5, PanicRate: 0.25, BuildFailRate: 0.25}
	var tasks []*Task
	for i := 0; i < 24; i++ {
		tasks = append(tasks, countTask(fmt.Sprintf("t%d", i), 6))
	}
	p := &Pool{Workers: 4}
	results, err := p.Submit(context.Background(), RunConfig{Faults: plan, MaxRetries: 2}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	rep := Report(results)
	if err := FirstError(results); err != nil {
		t.Fatalf("transient faults must all recover: %v", err)
	}
	if rep.Recovered == 0 || rep.Retries == 0 {
		t.Fatalf("expected recoveries at 100%% injection: %+v", rep)
	}
	if rep.Recovered != rep.Retries {
		t.Errorf("transient faults need exactly one retry each: recovered=%d retries=%d",
			rep.Recovered, rep.Retries)
	}
	if rep.Injected == 0 {
		t.Error("injected failures not classified")
	}
	if got := TotalFirings(results); got != 24*6 {
		t.Errorf("total firings = %d, want %d", got, 24*6)
	}
}

func TestPermanentFaultQuarantinedWithoutRetryBurn(t *testing.T) {
	plan := faults.Config{Seed: 7, PanicRate: 1, PermanentFraction: 1}
	p := &Pool{Workers: 2}
	results, err := p.Submit(context.Background(), RunConfig{Faults: plan, MaxRetries: 5}, []*Task{countTask("poison", 3)})
	if err != nil {
		t.Fatal(err)
	}
	rep := Report(results)
	r := results[0]
	if !r.Quarantined || r.Err == nil {
		t.Fatalf("poison task not quarantined: %+v", r)
	}
	if r.Attempts != 1 {
		t.Errorf("permanent fault burned %d attempts, want 1", r.Attempts)
	}
	if rep.Quarantined != 1 || rep.Panics != 1 {
		t.Errorf("report = %+v", rep)
	}
}

func TestQuarantineAfterRetryLimit(t *testing.T) {
	fails := &Task{ID: "always", Build: func() (*ops5.Engine, error) {
		return nil, errors.New("disk on fire")
	}}
	p := &Pool{Workers: 1}
	results, err := p.Submit(context.Background(), RunConfig{MaxRetries: 3}, []*Task{fails})
	if err != nil {
		t.Fatal(err)
	}
	rep := Report(results)
	r := results[0]
	if r.Attempts != 4 || !r.Quarantined {
		t.Fatalf("attempts=%d quarantined=%v, want 4/true", r.Attempts, r.Quarantined)
	}
	if len(r.AttemptErrs) != 4 {
		t.Errorf("attempt errors = %d, want 4", len(r.AttemptErrs))
	}
	if rep.Attempts != 4 || rep.Retries != 3 || rep.Quarantined != 1 {
		t.Errorf("report = %+v", rep)
	}
}

// TestChaosReportDeterminism is the acceptance check: with a fixed
// fault seed, two chaos runs — even with different worker counts and
// goroutine interleavings — produce byte-identical reports.
func TestChaosReportDeterminism(t *testing.T) {
	build := func() []*Task {
		var tasks []*Task
		for i := 0; i < 40; i++ {
			tasks = append(tasks, countTask(fmt.Sprintf("task-%02d", i), 4+i%5))
		}
		return tasks
	}
	run := func(workers int) string {
		plan := faults.Config{
			Seed: 1990, CrashRate: 0.2, PanicRate: 0.1, BuildFailRate: 0.1, PermanentFraction: 0.25,
		}
		p := &Pool{Workers: workers}
		results, err := p.Submit(context.Background(), RunConfig{Faults: plan, MaxRetries: 2}, build())
		if err != nil {
			t.Fatal(err)
		}
		return Report(results).String()
	}
	a, b, c := run(8), run(8), run(3)
	if a != b {
		t.Errorf("same seed, same workers: reports differ\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	if a != c {
		t.Errorf("same seed, different workers: reports differ\n--- a ---\n%s--- c ---\n%s", a, c)
	}
	if rep := run(8); len(rep) == 0 {
		t.Error("empty report")
	}
}

func TestChaosUnderRaceWithManyWorkers(t *testing.T) {
	// Exercised with -race in CI: panics, crashes and retries across
	// more workers than tasks.
	plan := faults.Config{Seed: 3, CrashRate: 0.3, PanicRate: 0.3}
	tasks := []*Task{countTask("a", 5), panicTask("b"), countTask("c", 5)}
	p := &Pool{Workers: 16}
	results, err := p.Submit(context.Background(), RunConfig{Faults: plan, MaxRetries: 1}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	rep := Report(results)
	if len(results) != 3 || rep.Tasks != 3 {
		t.Fatalf("results=%d report tasks=%d", len(results), rep.Tasks)
	}
	if results[1].Err == nil {
		t.Error("panicking task must fail even under injection")
	}
}

func TestReportRecoveryColumns(t *testing.T) {
	plan := faults.Config{Seed: 21, CrashRate: 1}
	p := &Pool{Workers: 2}
	results, err := p.Submit(context.Background(), RunConfig{Faults: plan, MaxRetries: 1}, []*Task{countTask("x", 4), countTask("y", 4)})
	if err != nil {
		t.Fatal(err)
	}
	rep := Report(results)
	rec := rep.Recovery()
	if rec.Retries != 2 || rec.Recovered != 2 || rec.Quarantined != 0 {
		t.Errorf("recovery columns = %+v", rec)
	}
}
