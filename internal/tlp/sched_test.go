package tlp

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// schedTaskSet is the differential workload: a dozen tasks of
// distinct sizes over three groups. Built fresh per run so every
// configuration executes its own engines.
func schedTaskSet() []*Task {
	var tasks []*Task
	for i := 0; i < 12; i++ {
		t := countTask(fmt.Sprintf("t%d", i), 2+i%5)
		t.Group = []string{"b", "rd", "rs"}[i%3]
		tasks = append(tasks, t)
	}
	return tasks
}

// TestDifferentialSchedulingPolicies is the runtime scheduling oracle:
// the same task set must produce byte-identical per-task results —
// firing statistics and full cost logs, memory records included — on
// one worker and on four, whose interleaving of the queue differs. The
// worker count may only change which process runs a task, never what
// the task computes.
func TestDifferentialSchedulingPolicies(t *testing.T) {
	baselinePool := &Pool{Workers: 1}
	base, err := baselinePool.Submit(context.Background(), RunConfig{}, schedTaskSet())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]*Result{}
	for _, r := range base {
		want[r.TaskID] = r
	}
	for _, workers := range []int{1, 4} {
		name := fmt.Sprintf("w=%d", workers)
		p := &Pool{Workers: workers}
		results, err := p.Submit(context.Background(), RunConfig{}, schedTaskSet())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(results) != len(base) {
			t.Fatalf("%s: %d results, want %d", name, len(results), len(base))
		}
		for _, r := range results {
			w := want[r.TaskID]
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
