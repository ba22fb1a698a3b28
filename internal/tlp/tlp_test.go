package tlp

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"spampsm/internal/ops5"
	"spampsm/internal/symtab"
)

// countTask builds a task whose engine counts to n.
func countTask(id string, n int) *Task {
	return &Task{
		ID:      id,
		EstSize: float64(n),
		Build: func() (*ops5.Engine, error) {
			prog, err := ops5.Parse(`
(literalize count n limit)
(p step (count ^n <n> ^limit > <n>) --> (modify 1 ^n (compute <n> + 1)))
`)
			if err != nil {
				return nil, err
			}
			e, err := ops5.NewEngine(prog)
			if err != nil {
				return nil, err
			}
			_, err = e.Assert("count", map[string]symtab.Value{
				"n": symtab.Int(0), "limit": symtab.Int(int64(n)),
			})
			return e, err
		},
	}
}

func TestSerialExecution(t *testing.T) {
	tasks := []*Task{countTask("a", 3), countTask("b", 5), countTask("c", 7)}
	results, err := RunSerial(tasks, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	if got := TotalFirings(results); got != 15 {
		t.Errorf("total firings = %d, want 15", got)
	}
	if err := FirstError(results); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
	for _, r := range results {
		if r.Worker != 0 {
			t.Errorf("serial run must use worker 0, got %d", r.Worker)
		}
	}
}

func TestParallelExecution(t *testing.T) {
	var tasks []*Task
	for i := 0; i < 20; i++ {
		tasks = append(tasks, countTask(fmt.Sprintf("t%d", i), 10))
	}
	p := &Pool{Workers: 4}
	results, err := p.Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if got := TotalFirings(results); got != 200 {
		t.Errorf("total firings = %d, want 200", got)
	}
	// Results are independent engines: all succeeded.
	for i, r := range results {
		if r == nil || r.Err != nil {
			t.Fatalf("result %d: %+v", i, r)
		}
		if r.Engine == nil || len(r.Engine.WMEs("count")) != 1 {
			t.Errorf("result %d: engine state wrong", i)
		}
	}
}

func TestLargestFirstOrdering(t *testing.T) {
	tasks := []*Task{countTask("small", 1), countTask("big", 50), countTask("mid", 10)}
	p := &Pool{Workers: 1, RunConfig: RunConfig{Policy: LargestFirst}}
	results, err := p.Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].TaskID != "big" || results[1].TaskID != "mid" || results[2].TaskID != "small" {
		t.Errorf("LPT order wrong: %s %s %s", results[0].TaskID, results[1].TaskID, results[2].TaskID)
	}
}

func TestFIFOPreservesOrder(t *testing.T) {
	tasks := []*Task{countTask("x", 2), countTask("y", 2), countTask("z", 2)}
	p := &Pool{Workers: 1, RunConfig: RunConfig{Policy: FIFO}}
	results, _ := p.Run(tasks)
	if results[0].TaskID != "x" || results[2].TaskID != "z" {
		t.Error("FIFO must preserve submission order")
	}
}

func TestBuildErrorReported(t *testing.T) {
	boom := &Task{ID: "boom", Build: func() (*ops5.Engine, error) {
		return nil, errors.New("no dataset")
	}}
	results, err := (&Pool{Workers: 2}).Run([]*Task{countTask("ok", 2), boom})
	if err != nil {
		t.Fatal(err)
	}
	ferr := FirstError(results)
	if ferr == nil || !errors.Is(ferr, ferr) {
		t.Fatal("expected task error")
	}
	// The failing task must not abort the healthy one.
	var okSeen bool
	for _, r := range results {
		if r.TaskID == "ok" && r.Err == nil {
			okSeen = true
		}
	}
	if !okSeen {
		t.Error("healthy task should still complete")
	}
}

func TestRunErrorReported(t *testing.T) {
	// A task whose engine errors during Run is reported in its Result;
	// the rest of the queue still completes.
	bad := &Task{ID: "bad", Build: func() (*ops5.Engine, error) {
		prog, err := ops5.Parse(`
(literalize a x)
(external boom)
(p r (a) --> (call boom))
`)
		if err != nil {
			return nil, err
		}
		e, err := ops5.NewEngine(prog)
		if err != nil {
			return nil, err
		}
		e.Register("boom", func(args []symtab.Value) (symtab.Value, float64, error) {
			return symtab.Nil, 0, errors.New("kaboom")
		})
		_, err = e.Assert("a", nil)
		return e, err
	}}
	results, err := (&Pool{Workers: 2}).Run([]*Task{countTask("fine", 3), bad, countTask("also-fine", 3)})
	if err != nil {
		t.Fatal(err)
	}
	var badErr error
	completed := 0
	for _, r := range results {
		if r.TaskID == "bad" {
			badErr = r.Err
		} else if r.Err == nil {
			completed++
		}
	}
	if badErr == nil || !strings.Contains(badErr.Error(), "kaboom") {
		t.Errorf("bad task error = %v", badErr)
	}
	if completed != 2 {
		t.Errorf("healthy tasks completed = %d, want 2", completed)
	}
	// Satellite: the failed task's partial cost must not be discarded —
	// the engine fired its production before the external errored.
	for _, r := range results {
		if r.TaskID == "bad" {
			if r.Log == nil || r.Stats.RHSActions == 0 {
				t.Errorf("failed task lost its partial stats/log: stats=%+v log=%v", r.Stats, r.Log)
			}
		}
	}
}

func TestLargestFirstStableOnEqualEstSize(t *testing.T) {
	// Ties on EstSize must preserve submission order (stable sort), so
	// schedules are reproducible.
	tasks := []*Task{
		countTask("big", 50),
		countTask("tie-a", 10), countTask("tie-b", 10), countTask("tie-c", 10),
		countTask("small", 1),
	}
	for _, t2 := range tasks[1:4] {
		t2.EstSize = 10
	}
	p := &Pool{Workers: 1, RunConfig: RunConfig{Policy: LargestFirst}}
	results, err := p.Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	got := []string{results[1].TaskID, results[2].TaskID, results[3].TaskID}
	want := []string{"tie-a", "tie-b", "tie-c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("equal-EstSize order not stable: got %v, want %v", got, want)
		}
	}
}

func TestErrorsAggregation(t *testing.T) {
	bad1 := &Task{ID: "bad1", Build: func() (*ops5.Engine, error) { return nil, errors.New("e1") }}
	bad2 := &Task{ID: "bad2", Build: func() (*ops5.Engine, error) { return nil, errors.New("e2") }}
	results, err := (&Pool{Workers: 2}).Run([]*Task{bad1, countTask("ok", 2), bad2})
	if err != nil {
		t.Fatal(err)
	}
	errs := Errors(results)
	if len(errs) != 2 {
		t.Fatalf("Errors() = %d errors, want 2", len(errs))
	}
	if !strings.Contains(errs[0].Error(), "bad1") || !strings.Contains(errs[1].Error(), "bad2") {
		t.Errorf("errors not in queue order: %v", errs)
	}
	if Errors(results[1:2]) != nil {
		t.Error("clean results must aggregate to nil")
	}
}

func TestEmptyQueueRejected(t *testing.T) {
	if _, err := (&Pool{Workers: 1}).Run(nil); err == nil {
		t.Error("empty queue must be an error")
	}
}

func TestMaxFiringsLimit(t *testing.T) {
	p := &Pool{Workers: 1, RunConfig: RunConfig{MaxFirings: 3}}
	results, _ := p.Run([]*Task{countTask("limited", 100)})
	if results[0].Stats.Firings != 3 {
		t.Errorf("firings = %d, want 3", results[0].Stats.Firings)
	}
}

func TestWorkersDefault(t *testing.T) {
	p := &Pool{} // zero workers → 1
	results, err := p.Run([]*Task{countTask("one", 2)})
	if err != nil || results[0].Err != nil {
		t.Fatalf("defaulted pool failed: %v %v", err, results[0].Err)
	}
}

func TestAsynchronousIndependence(t *testing.T) {
	// Task processes must not share engine state: run many tasks that
	// would collide if working memory were shared.
	var built int32
	var tasks []*Task
	for i := 0; i < 16; i++ {
		id := fmt.Sprintf("iso%d", i)
		base := countTask(id, 4)
		tasks = append(tasks, &Task{
			ID: id,
			Build: func() (*ops5.Engine, error) {
				atomic.AddInt32(&built, 1)
				return base.Build()
			},
		})
	}
	results, err := (&Pool{Workers: 8}).Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&built) != 16 {
		t.Errorf("each task must build its own engine; built = %d", built)
	}
	for _, r := range results {
		if r.Stats.Firings != 4 {
			t.Errorf("task %s fired %d, want 4", r.TaskID, r.Stats.Firings)
		}
	}
}

func TestTotalInstrPositive(t *testing.T) {
	results, _ := RunSerial([]*Task{countTask("a", 5)}, 0)
	if TotalInstr(results) <= 0 {
		t.Error("total instructions should be positive")
	}
}

// TestBuildModeBits: every mode survives its one-byte wire form, and a
// byte with a bit no field defines — bit 3, the retired per-WME seed
// load, included — is refused rather than truncated to the bits that
// are.
func TestBuildModeBits(t *testing.T) {
	for b := 0; b < 256; b++ {
		m, ok := BuildModeFromBits(byte(b))
		if defined := b < 1<<5 && b&8 == 0; ok != defined {
			t.Fatalf("bits %#x: accepted=%v, want %v", b, ok, defined)
		}
		if ok && m.Bits() != byte(b) {
			t.Fatalf("bits %#x round-tripped to %#x (%+v)", b, m.Bits(), m)
		}
	}
	if (BuildMode{}).Bits() != 0 || (BuildMode{ReferenceGeo: true}).Bits() != 1<<4 {
		t.Fatal("the zero mode must encode as 0 and ReferenceGeo as bit 4")
	}
}
