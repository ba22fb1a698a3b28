package tlp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// settleGoroutines waits for the goroutine count to come back to at
// most before: a pool's task processes exit once its queue is empty,
// which may be a moment after the last Result was handed on.
func settleGoroutines(t *testing.T, before int, what string) {
	t.Helper()
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > before {
		t.Fatalf("%s: %d goroutines, %d before", what, n, before)
	}
}

// TestConcurrentProcessesExitUnclosed: a pool's task processes start
// on demand and exit when the queue is empty, so a pool that is never
// closed — an interpretation's private one — leaves no goroutine
// behind, run after run.
func TestConcurrentProcessesExitUnclosed(t *testing.T) {
	before := runtime.NumGoroutine()
	p := &Pool{Workers: 4}
	for run := range 3 {
		var tasks []*Task
		for i := range 24 {
			tasks = append(tasks, countTask(fmt.Sprintf("r%dt%d", run, i), 3))
		}
		results, err := p.Run(tasks)
		if err != nil {
			t.Fatal(err)
		}
		if err := FirstError(results); err != nil {
			t.Fatal(err)
		}
		settleGoroutines(t, before, fmt.Sprintf("after run %d", run))
	}
	if got := len(p.Stats().Arenas); got != 4 {
		t.Errorf("%d worker arenas, want 4: the slots outlive their processes", got)
	}
}

// TestConcurrentSubmitBeyondQueueDepth: a Submit far longer than the
// queue holds, on a fresh single-worker pool, completes — a process is
// started before the submitter can block on a full queue.
func TestConcurrentSubmitBeyondQueueDepth(t *testing.T) {
	p := &Pool{Workers: 1}
	tasks := make([]*Task, 10*queueDepth)
	for i := range tasks {
		tasks[i] = countTask(fmt.Sprintf("t%d", i), 1)
	}
	done := make(chan error, 1)
	var results []*Result
	go func() {
		var err error
		results, err = p.Run(tasks)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Submit of 10× the queue depth did not complete")
	}
	for i, r := range results {
		if r == nil || r.Err != nil || r.SeqInQ != i {
			t.Fatalf("result %d: %+v", i, r)
		}
	}
	if got := p.Stats().TasksRun; got != int64(len(tasks)) {
		t.Errorf("TasksRun = %d, want %d", got, len(tasks))
	}
}

// TestConcurrentSubmitGoClose hammers one pool with Submits and Gos
// from many goroutines and closes it midway: every job gets exactly
// one Done or its caller gets ErrPoolClosed, and the pool counts
// exactly the jobs that ran. Run it under -race.
func TestConcurrentSubmitGoClose(t *testing.T) {
	p := &Pool{Workers: 3}
	const callers, jobsEach = 12, 20
	var ran atomic.Int64     // Submit tasks whose Result reached their caller
	var refused atomic.Int64 // Submit and Go calls that got ErrPoolClosed
	var mu sync.Mutex
	var accepted []*atomic.Int32 // Done calls of each job Go accepted
	var wg sync.WaitGroup
	start := make(chan struct{})
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := range jobsEach {
				id := fmt.Sprintf("c%dj%d", c, i)
				if c%2 == 0 {
					results, err := p.Submit(context.Background(), RunConfig{}, []*Task{countTask(id+"a", 1), countTask(id+"b", 2)})
					if errors.Is(err, ErrPoolClosed) {
						refused.Add(1)
						continue
					}
					if err != nil {
						t.Error(err)
						return
					}
					for _, r := range results {
						if r == nil || r.Err != nil {
							t.Errorf("submit %s: result %+v", id, r)
						}
					}
					ran.Add(int64(len(results)))
					continue
				}
				dones := new(atomic.Int32)
				err := p.Go(Job{Ctx: context.Background(), Task: countTask(id, 1), Done: func(r *Result) {
					dones.Add(1)
					if r.Err != nil {
						t.Errorf("job %s: %v", id, r.Err)
					}
				}})
				if errors.Is(err, ErrPoolClosed) {
					refused.Add(1)
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				accepted = append(accepted, dones)
				mu.Unlock()
			}
		}()
	}
	close(start)
	// Close midway: once some jobs have run, while callers still queue.
	for p.Stats().TasksRun < 40 {
		time.Sleep(50 * time.Microsecond)
	}
	p.Close()
	wg.Wait()
	// Close runs what was queued before it returns: every accepted job
	// has had its Done, once.
	for i, dones := range accepted {
		if n := dones.Load(); n != 1 {
			t.Errorf("accepted job %d: Done ran %d times", i, n)
		}
	}
	ran.Add(int64(len(accepted)))
	t.Logf("%d tasks ran, %d calls refused", ran.Load(), refused.Load())
	if got, want := p.Stats().TasksRun, ran.Load(); got != want {
		t.Errorf("TasksRun = %d, jobs that ran = %d", got, want)
	}
	if _, err := p.Run([]*Task{countTask("late", 1)}); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("Run after Close: %v, want ErrPoolClosed", err)
	}
}
