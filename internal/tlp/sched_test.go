package tlp

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// memTask builds a count task with a modeled footprint and group.
func memTask(id string, n int, mem float64, group string) *Task {
	t := countTask(id, n)
	t.MemEst = mem
	t.Group = group
	return t
}

// schedTaskSet is the differential workload: a dozen tasks over three
// groups with distinct sizes and footprints. Built fresh per run so
// every configuration executes its own engines.
func schedTaskSet() []*Task {
	var tasks []*Task
	for i := 0; i < 12; i++ {
		tasks = append(tasks, memTask(
			fmt.Sprintf("t%d", i),
			2+i%5,
			float64(1+i%4)*1024,
			[]string{"b", "rd", "rs"}[i%3],
		))
	}
	return tasks
}

// TestDifferentialSchedulingPolicies is the runtime scheduling oracle:
// the same task set must produce byte-identical per-task results —
// firing statistics and full cost logs, memory records included —
// under every policy, every memory budget and both serial and parallel
// worker counts. Policies and budgets may only permute and delay
// execution, never change it.
func TestDifferentialSchedulingPolicies(t *testing.T) {
	type key struct{ id string }
	baselinePool := &Pool{Workers: 1, RunConfig: RunConfig{Policy: FIFO}}
	base, err := baselinePool.Run(schedTaskSet())
	if err != nil {
		t.Fatal(err)
	}
	want := map[key]*Result{}
	for _, r := range base {
		want[key{r.TaskID}] = r
	}
	for _, pol := range []QueuePolicy{FIFO, LargestFirst, PostOrder} {
		for _, budget := range []float64{0, 1, 2048, 1 << 20} {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("%v/B=%g/w=%d", pol, budget, workers)
				p := &Pool{Workers: workers, RunConfig: RunConfig{Policy: pol}, MemBudget: budget}
				results, err := p.Run(schedTaskSet())
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(results) != len(base) {
					t.Fatalf("%s: %d results, want %d", name, len(results), len(base))
				}
				for _, r := range results {
					w := want[key{r.TaskID}]
					if w == nil {
						t.Fatalf("%s: unexpected task %q", name, r.TaskID)
					}
					if !reflect.DeepEqual(r.Stats, w.Stats) {
						t.Errorf("%s: task %s stats diverge: %+v vs %+v", name, r.TaskID, r.Stats, w.Stats)
					}
					if !reflect.DeepEqual(r.Log, w.Log) {
						t.Errorf("%s: task %s cost log diverges (memory records included)", name, r.TaskID)
					}
				}
			}
		}
	}
}

// TestPostOrderQueueGrouping: with one worker, PostOrder must execute
// whole groups contiguously, groups in decreasing aggregate footprint,
// larger tasks first within each group.
func TestPostOrderQueueGrouping(t *testing.T) {
	tasks := []*Task{
		memTask("a1", 2, 100, "a"), memTask("b1", 2, 500, "b"),
		memTask("a2", 2, 300, "a"), memTask("b2", 2, 200, "b"),
	}
	p := &Pool{Workers: 1, RunConfig: RunConfig{Policy: PostOrder}}
	results, err := p.Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range results {
		got = append(got, r.TaskID)
	}
	// Group b aggregates 700 vs a's 400; within groups footprint descends.
	want := []string{"b1", "b2", "a2", "a1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("postorder queue = %v, want %v", got, want)
	}
}

func TestMemGateBudgetNeverExceeded(t *testing.T) {
	const budget = 300
	g := newMemGate(budget)
	var mu sync.Mutex
	var inUse, peak float64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		amt := float64(100 + 50*(i%3))
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := g.acquire(context.Background(), amt)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			inUse += got
			if inUse > peak {
				peak = inUse
			}
			if inUse > budget {
				t.Errorf("aggregate reservation %v exceeds budget", inUse)
			}
			mu.Unlock()
			mu.Lock()
			inUse -= got
			mu.Unlock()
			g.release(got)
		}()
	}
	wg.Wait()
	st := g.stats()
	if st.Budget != budget {
		t.Errorf("stats budget = %v", st.Budget)
	}
	if st.PeakReserved > budget {
		t.Errorf("peak reserved %v exceeds budget", st.PeakReserved)
	}
	if peak > budget {
		t.Errorf("observed peak %v exceeds budget", peak)
	}
}

// TestMemGateOversizedClamped: a reservation larger than the whole
// budget is clamped, so it admits once the gate is empty instead of
// deadlocking.
func TestMemGateOversizedClamped(t *testing.T) {
	g := newMemGate(100)
	got, err := g.acquire(context.Background(), 250)
	if err != nil {
		t.Fatal(err)
	}
	if got != 100 {
		t.Errorf("oversized reservation = %v, want clamped 100", got)
	}
	g.release(got)
}

func TestMemGateNilAdmitsEverything(t *testing.T) {
	var g *memGate // MemBudget 0
	got, err := g.acquire(context.Background(), 1e9)
	if got != 0 || err != nil {
		t.Errorf("nil gate acquire = %v, %v", got, err)
	}
	g.release(got)
	if st := g.stats(); st != (MemSchedStats{}) {
		t.Errorf("nil gate stats = %+v", st)
	}
}

// TestMemGateCancelledWhileThrottled: a waiter blocked on the budget
// must be released by context cancellation with the context's error.
func TestMemGateCancelledWhileThrottled(t *testing.T) {
	g := newMemGate(100)
	held, err := g.acquire(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := g.acquire(ctx, 50)
		errc <- err
	}()
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Errorf("throttled acquire returned %v, want context.Canceled", err)
	}
	g.release(held)
	if st := g.stats(); st.ThrottleWaits != 1 {
		t.Errorf("throttle waits = %d, want 1", st.ThrottleWaits)
	}
}

// TestPoolMemSchedAccumulates: one pool's gate spans its runs, so the
// budget and the throttle accounting cover a whole multi-phase
// interpretation.
func TestPoolMemSchedAccumulates(t *testing.T) {
	p := &Pool{Workers: 4, MemBudget: 1500}
	for run := 0; run < 2; run++ {
		if _, err := p.Run(schedTaskSet()); err != nil {
			t.Fatal(err)
		}
	}
	st := p.MemSched()
	if st.Budget != 1500 {
		t.Errorf("budget = %v", st.Budget)
	}
	if st.PeakReserved <= 0 || st.PeakReserved > 1500 {
		t.Errorf("peak reserved = %v, want in (0, 1500]", st.PeakReserved)
	}
}

// TestSharedPoolMemBudget: the shared pool's gate throttles across
// submissions and surfaces its accounting in Counters.
func TestSharedPoolMemBudget(t *testing.T) {
	sp := NewSharedPool(4, 64)
	sp.MemBudget = 2048
	defer sp.Close()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results, err := sp.Submit(context.Background(), RunConfig{}, schedTaskSet())
			if err != nil {
				t.Error(err)
				return
			}
			for _, r := range results {
				if r.Err != nil {
					t.Errorf("task %s: %v", r.TaskID, r.Err)
				}
			}
		}()
	}
	wg.Wait()
	st := sp.Stats()
	if st.MemBudget != 2048 {
		t.Errorf("counters budget = %v", st.MemBudget)
	}
	if st.PeakMemEst <= 0 || st.PeakMemEst > 2048 {
		t.Errorf("counters peak = %v, want in (0, 2048]", st.PeakMemEst)
	}
}
