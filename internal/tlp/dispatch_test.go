package tlp

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"spampsm/internal/ops5"
	"spampsm/internal/symtab"
)

// Regression test for the retry-backoff overflow: the delay used to be
// computed as RetryBackoff << (attempt-1), which for large MaxRetries
// shifted past 63 bits into negative (therefore zero-length) or absurd
// sleeps. retryDelay must double monotonically, cap the exponent, and
// saturate at maxRetryDelay.
func TestRetryDelayCapsAndSaturates(t *testing.T) {
	base := 10 * time.Millisecond
	prev := time.Duration(0)
	for attempt := 1; attempt <= 128; attempt++ {
		d := retryDelay(base, attempt)
		if d < 0 {
			t.Fatalf("attempt %d: negative delay %v", attempt, d)
		}
		if d < prev {
			t.Fatalf("attempt %d: delay %v < previous %v (not monotonic)", attempt, d, prev)
		}
		if d > maxRetryDelay {
			t.Fatalf("attempt %d: delay %v exceeds cap %v", attempt, d, maxRetryDelay)
		}
		prev = d
	}
	if got := retryDelay(base, 1); got != base {
		t.Errorf("attempt 1: got %v, want %v", got, base)
	}
	if got := retryDelay(base, 3); got != base<<2 {
		t.Errorf("attempt 3: got %v, want %v", got, base<<2)
	}
	// Attempt 65 shifted by 64 before the fix: the delay wrapped to 0.
	if got := retryDelay(base, 65); got != maxRetryDelay {
		t.Errorf("attempt 65: got %v, want saturated %v", got, maxRetryDelay)
	}
	if got := retryDelay(0, 5); got != 0 {
		t.Errorf("zero base: got %v, want 0", got)
	}
	// A base near the Duration limit must saturate, not overflow.
	if got := retryDelay(time.Duration(math.MaxInt64/2), 10); got != maxRetryDelay {
		t.Errorf("huge base: got %v, want %v", got, maxRetryDelay)
	}
}

// TestLargeMaxRetriesTerminates drives the real retry loop through
// attempt counts that previously overflowed the shift; with a 1 ns
// base every backoff stays microscopic, so the run must finish almost
// immediately rather than sleeping for wrapped durations.
func TestLargeMaxRetriesTerminates(t *testing.T) {
	fail := &Task{ID: "always-fails", Build: func() (*ops5.Engine, error) {
		return nil, fmt.Errorf("nope")
	}}
	cfg := RunConfig{MaxRetries: 80, RetryBackoff: time.Nanosecond}
	start := time.Now()
	results, err := (&Pool{Workers: 1}).Submit(context.Background(), cfg, []*Task{fail})
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Quarantined || results[0].Attempts != 81 {
		t.Fatalf("want quarantine after 81 attempts, got %+v", results[0])
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("retry loop took %v; backoff overflow suspected", elapsed)
	}
}

// TestScratchReuseUnderDropEngines runs a DropEngines pool whose tasks
// build through BuildWith (worker-scratch recycling) and checks the
// results equal a plain engine-retaining run.
func TestScratchReuseUnderDropEngines(t *testing.T) {
	prog, err := ops5.Parse(`
(literalize count n limit)
(p step (count ^n <n> ^limit > <n>) --> (modify 1 ^n (compute <n> + 1)))
`)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id string, n int) *Task {
		load := func(e *ops5.Engine, err error) (*ops5.Engine, error) {
			if err != nil {
				return nil, err
			}
			_, err = e.Assert("count", map[string]symtab.Value{
				"n": symtab.Int(0), "limit": symtab.Int(int64(n)),
			})
			return e, err
		}
		return &Task{
			ID:    id,
			Build: func() (*ops5.Engine, error) { return load(ops5.NewEngine(prog)) },
			BuildWith: func(s *ops5.Scratch) (*ops5.Engine, error) {
				if s == nil {
					return load(ops5.NewEngine(prog))
				}
				return load(ops5.NewEngine(prog, ops5.WithScratch(s)))
			},
		}
	}
	mkTasks := func() []*Task {
		tasks := make([]*Task, 12)
		for i := range tasks {
			tasks[i] = mk(fmt.Sprintf("t%d", i), 3+i)
		}
		return tasks
	}
	keep := &Pool{Workers: 1}
	want, err := keep.Run(mkTasks())
	if err != nil {
		t.Fatal(err)
	}
	drop := &Pool{Workers: 2, DropEngines: true}
	got, err := drop.Run(mkTasks())
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i].Engine != nil {
			t.Fatalf("task %s: DropEngines retained an engine", got[i].TaskID)
		}
		if got[i].Stats != want[i].Stats {
			t.Fatalf("task %s: scratch-reuse stats %+v != reference %+v", got[i].TaskID, got[i].Stats, want[i].Stats)
		}
	}
}

// BenchmarkPoolDispatch measures queue-dispatch overhead: many trivial
// tasks (one shared CompiledProgram, O(nodes) engine instantiation,
// one firing each) across worker counts, so the atomic fetch-add
// cursor is the dominant shared operation.
func BenchmarkPoolDispatch(b *testing.B) {
	prog, err := ops5.Parse(`
(literalize tick x)
(p once (tick ^x 1) --> (remove 1))
`)
	if err != nil {
		b.Fatal(err)
	}
	cp, err := ops5.CompileProgram(prog)
	if err != nil {
		b.Fatal(err)
	}
	const nTasks = 512
	mkTasks := func() []*Task {
		tasks := make([]*Task, nTasks)
		for i := range tasks {
			tasks[i] = &Task{
				ID: fmt.Sprintf("t%d", i),
				BuildWith: func(s *ops5.Scratch) (*ops5.Engine, error) {
					var opts []ops5.Option
					if s != nil {
						opts = append(opts, ops5.WithScratch(s))
					}
					e, err := cp.NewEngine(opts...)
					if err != nil {
						return nil, err
					}
					_, err = e.Assert("tick", map[string]symtab.Value{"x": symtab.Int(1)})
					return e, err
				},
			}
		}
		return tasks
	}
	for _, workers := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			tasks := mkTasks()
			pool := &Pool{Workers: workers, DropEngines: true}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pool.Run(tasks); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
