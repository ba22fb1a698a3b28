package tlp

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"spampsm/internal/ops5"
	"spampsm/internal/symtab"
)

// failTask builds a task whose Build always fails — the cheapest way
// to drive the retry loop without engine work.
func failTask(id string) *Task {
	return &Task{
		ID:    id,
		Build: func() (*ops5.Engine, error) { return nil, errors.New("induced") },
	}
}

// blockingTask builds a task that never quiesces: its external blocks
// on release the first time through (so a test can hold the attempt
// in-flight deterministically) and each firing re-arms the next, so
// once released the engine keeps cycling until it observes an
// interrupt. started is closed when the external is first entered.
func blockingTask(id string, started chan<- struct{}, release <-chan struct{}) *Task {
	var once sync.Once
	return &Task{
		ID: id,
		Build: func() (*ops5.Engine, error) {
			prog, err := ops5.Parse(`
(literalize count n)
(external block)
(p spin (count ^n <n>) --> (call block) (modify 1 ^n (compute <n> + 1)))
`)
			if err != nil {
				return nil, err
			}
			e, err := ops5.NewEngine(prog)
			if err != nil {
				return nil, err
			}
			e.Register("block", func(args []symtab.Value) (symtab.Value, float64, error) {
				once.Do(func() { close(started) })
				<-release
				return symtab.Nil, 0, nil
			})
			_, err = e.Assert("count", map[string]symtab.Value{"n": symtab.Int(0)})
			return e, err
		},
	}
}

// A pre-cancelled context skips every task: nothing is built or run,
// every Result carries ErrCancelled, and nothing is quarantined.
func TestRunContextPreCancelledSkipsTasks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tasks := []*Task{countTask("a", 3), countTask("b", 3)}
	results, err := (&Pool{Workers: 2}).RunContext(ctx, tasks)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !errors.Is(r.Err, ErrCancelled) {
			t.Errorf("task %s: err = %v, want ErrCancelled", r.TaskID, r.Err)
		}
		if !r.Cancelled {
			t.Errorf("task %s: Cancelled flag not set", r.TaskID)
		}
		if r.Quarantined {
			t.Errorf("task %s: cancelled task must not be quarantined", r.TaskID)
		}
		if r.Attempts != 0 {
			t.Errorf("task %s: attempts = %d, want 0", r.TaskID, r.Attempts)
		}
	}
	rep := Report(results)
	if rep.Cancelled != 2 || rep.Quarantined != 0 || rep.Retries != 0 {
		t.Errorf("report: cancelled=%d quarantined=%d retries=%d, want 2/0/0",
			rep.Cancelled, rep.Quarantined, rep.Retries)
	}
}

// Cancelling mid-attempt interrupts the engine cooperatively and the
// task fails with ErrCancelled, not ErrTimeout.
func TestRunContextCancelsInFlightAttempt(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	var results []*Result
	var runErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		results, runErr = (&Pool{Workers: 1}).RunContext(ctx, []*Task{blockingTask("blk", started, release)})
	}()
	<-started
	cancel()
	// The external is blocking inside the engine; release it so the
	// recognize-act loop can observe the interrupt flag.
	close(release)
	<-done
	if runErr != nil {
		t.Fatal(runErr)
	}
	r := results[0]
	if !errors.Is(r.Err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", r.Err)
	}
	if errors.Is(r.Err, ErrTimeout) {
		t.Error("cancellation misclassified as timeout")
	}
	if r.Quarantined {
		t.Error("cancelled task must not be quarantined")
	}
}

// A cancelled run must not sit out its retry backoff: with a huge
// backoff configured, cancellation during the sleep returns promptly.
func TestRetryBackoffRespectsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cfg := RunConfig{
		MaxRetries:   3,
		RetryBackoff: time.Hour, // the test fails by timeout if slept
	}
	done := make(chan []*Result, 1)
	go func() {
		results, err := (&Pool{Workers: 1}).Submit(ctx, cfg, []*Task{failTask("f")})
		if err != nil {
			t.Error(err)
		}
		done <- results
	}()
	// Give the first attempt a moment to fail and enter the backoff,
	// then cancel; the run must return long before the hour is up.
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case results := <-done:
		r := results[0]
		if !errors.Is(r.Err, ErrCancelled) {
			t.Fatalf("err = %v, want ErrCancelled", r.Err)
		}
		if r.Quarantined {
			t.Error("cancelled-in-backoff task must not be quarantined")
		}
		if len(r.AttemptErrs) == 0 {
			t.Error("the failed attempt before the backoff was not recorded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after cancellation during backoff")
	}
}

// RunContext with a live context behaves exactly like Run.
func TestRunContextLiveMatchesRun(t *testing.T) {
	tasks := []*Task{countTask("a", 3), countTask("b", 5)}
	results, err := (&Pool{Workers: 2}).RunContext(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	if got := TotalFirings(results); got != 8 {
		t.Errorf("firings = %d, want 8", got)
	}
}

// A pool interleaves independent submissions and keeps their
// results separate; a cancelled submission doesn't disturb the others.
func TestPoolIsolatesSubmissions(t *testing.T) {
	p := &Pool{Workers: 4}
	defer p.Close()

	ctxLive := context.Background()
	ctxDead, cancel := context.WithCancel(context.Background())
	cancel()

	var wg sync.WaitGroup
	var live1, live2, dead []*Result
	var err1, err2, err3 error
	wg.Add(3)
	go func() {
		defer wg.Done()
		live1, err1 = p.Submit(ctxLive, RunConfig{}, []*Task{countTask("a", 3), countTask("b", 5)})
	}()
	go func() { defer wg.Done(); live2, err2 = p.Submit(ctxLive, RunConfig{}, []*Task{countTask("c", 7)}) }()
	go func() { defer wg.Done(); dead, err3 = p.Submit(ctxDead, RunConfig{}, []*Task{countTask("d", 9)}) }()
	wg.Wait()
	if err1 != nil || err2 != nil || err3 != nil {
		t.Fatal(err1, err2, err3)
	}
	if got := TotalFirings(live1); got != 8 {
		t.Errorf("submission 1 firings = %d, want 8", got)
	}
	if got := TotalFirings(live2); got != 7 {
		t.Errorf("submission 2 firings = %d, want 7", got)
	}
	if !errors.Is(dead[0].Err, ErrCancelled) {
		t.Errorf("cancelled submission err = %v, want ErrCancelled", dead[0].Err)
	}
	st := p.Stats()
	if st.Cancelled != 1 {
		t.Errorf("pool cancelled = %d, want 1", st.Cancelled)
	}
}

// Quarantines from cancelled submissions must not count against the
// shared pool's quarantine budget.
func TestPoolQuarantineBudgetExcludesCancelled(t *testing.T) {
	p := &Pool{Workers: 2, QuarantineBudget: 1}
	defer p.Close()

	// A genuinely failing task (no injection plan) on a live run: counts.
	live, err := p.Submit(context.Background(), RunConfig{MaxRetries: 0}, []*Task{failTask("poison")})
	if err != nil {
		t.Fatal(err)
	}
	if !live[0].Quarantined {
		t.Fatal("failing task on live run did not quarantine")
	}
	if !p.Healthy() {
		t.Fatal("one quarantine within budget should stay healthy")
	}

	// The same poison on cancelled runs: skipped (or abandoned), never
	// budgeted — the pool stays healthy no matter how many arrive.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 5; i++ {
		if _, err := p.Submit(ctx, RunConfig{MaxRetries: 0}, []*Task{failTask("poison")}); err != nil {
			t.Fatal(err)
		}
	}
	if !p.Healthy() {
		t.Error("cancelled runs' failures counted against the quarantine budget")
	}

	// A second live poison exceeds the budget of 1.
	if _, err := p.Submit(context.Background(), RunConfig{MaxRetries: 0}, []*Task{failTask("poison2")}); err != nil {
		t.Fatal(err)
	}
	if p.Healthy() {
		t.Error("second live quarantine should exceed the budget")
	}
}

// A task quarantined for outrunning its run's own firing budget must
// not count against the shared pool's quarantine budget: the cap is
// the run's choice, not evidence the shared workload is poisoned, and
// one tenant's budget must not flip /healthz for everyone else. A
// genuine poison on a live run still counts.
func TestPoolQuarantineBudgetExcludesFiringBudget(t *testing.T) {
	p := &Pool{Workers: 2, QuarantineBudget: 1}
	defer p.Close()

	for i := 0; i < 5; i++ {
		res, err := p.Submit(context.Background(), RunConfig{FiringBudget: 1, MaxRetries: 2}, []*Task{countTask("capped", 3)})
		if err != nil {
			t.Fatal(err)
		}
		if !res[0].Quarantined || !errors.Is(res[0].Err, ErrBudgetExceeded) {
			t.Fatalf("capped task: quarantined=%v err=%v, want quarantined over its firing budget", res[0].Quarantined, res[0].Err)
		}
	}
	if !p.Healthy() {
		t.Error("firing-budget quarantines counted against the shared budget")
	}
	st := p.Stats()
	if st.BudgetQuarantines != 5 || st.Quarantined != 0 {
		t.Errorf("firing-budget=%d budgeted=%d, want 5/0", st.BudgetQuarantines, st.Quarantined)
	}

	for i := 0; i < 2; i++ {
		if _, err := p.Submit(context.Background(), RunConfig{MaxRetries: 0}, []*Task{failTask("poison")}); err != nil {
			t.Fatal(err)
		}
	}
	if p.Healthy() {
		t.Error("two live poisons under a budget of 1 left the pool healthy")
	}
}

// Submit after Close fails cleanly.
func TestPoolClosedSubmit(t *testing.T) {
	p := &Pool{Workers: 1}
	p.Close()
	if _, err := p.Submit(context.Background(), RunConfig{}, []*Task{countTask("x", 1)}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("err = %v, want ErrPoolClosed", err)
	}
}
