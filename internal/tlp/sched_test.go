package tlp

import (
	"context"
	"fmt"
	"reflect"
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
// under every policy and both serial and parallel worker counts.
// Policies may only permute execution, never change it.
func TestDifferentialSchedulingPolicies(t *testing.T) {
	type key struct{ id string }
	baselinePool := &Pool{Workers: 1}
	base, err := baselinePool.Submit(context.Background(), RunConfig{Policy: FIFO}, schedTaskSet())
	if err != nil {
		t.Fatal(err)
	}
	want := map[key]*Result{}
	for _, r := range base {
		want[key{r.TaskID}] = r
	}
	for _, pol := range []QueuePolicy{FIFO, LargestFirst, PostOrder} {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("%v/w=%d", pol, workers)
			p := &Pool{Workers: workers}
			results, err := p.Submit(context.Background(), RunConfig{Policy: pol}, schedTaskSet())
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

// TestPostOrderQueueGrouping: with one worker, PostOrder must execute
// whole groups contiguously, groups in decreasing aggregate footprint,
// larger tasks first within each group.
func TestPostOrderQueueGrouping(t *testing.T) {
	tasks := []*Task{
		memTask("a1", 2, 100, "a"), memTask("b1", 2, 500, "b"),
		memTask("a2", 2, 300, "a"), memTask("b2", 2, 200, "b"),
	}
	p := &Pool{Workers: 1}
	results, err := p.Submit(context.Background(), RunConfig{Policy: PostOrder}, tasks)
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
