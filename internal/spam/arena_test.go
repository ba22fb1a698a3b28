package spam

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"spampsm/internal/scene"
	"spampsm/internal/tlp"
	"spampsm/internal/wm"
)

// rowsRunner runs every queue twice: on a pool whose workers lend their
// arenas — so each clean task's Read answers before its engine, working
// memory included, is settled — and serially on engines that own their
// memory and are read after the run, which is how every result was read
// before working memory moved into the arena. The two must give the
// same output.
type rowsRunner struct {
	t     *testing.T
	pool  *tlp.Pool
	tasks int
	rows  int // rows the reference reads walked
}

// countingRows counts the rows a read walks.
type countingRows struct {
	tlp.Rows
	n *int
}

func (c countingRows) EachWME(class string, f func(*wm.WME)) {
	c.Rows.EachWME(class, func(w *wm.WME) { *c.n++; f(w) })
}

func (r *rowsRunner) RunTasks(ctx context.Context, tasks []*tlp.Task) ([]*tlp.Result, error) {
	got, err := r.pool.RunContext(ctx, tasks)
	if err != nil {
		return nil, err
	}
	owned := make([]*tlp.Task, len(tasks))
	read := map[string]func(tlp.Rows) any{}
	for i, t := range tasks {
		owned[i] = &tlp.Task{ID: t.ID, Build: t.Build}
		read[t.ID] = t.Read
	}
	want, err := tlp.RunSerial(owned)
	if err != nil {
		return nil, err
	}
	byID := map[string]*tlp.Result{}
	for _, w := range want {
		byID[w.TaskID] = w
	}
	for _, g := range got {
		w := byID[g.TaskID]
		if g.Err != nil || w == nil || w.Err != nil {
			r.t.Fatalf("task %s: %v / %v", g.TaskID, g.Err, w)
		}
		if g.Output == nil || g.Engine == nil || g.Engine.Memory().Size() != 0 {
			r.t.Errorf("task %s: want an output and a settled, empty engine", g.TaskID)
		}
		if w.Output != nil {
			r.t.Fatalf("task %s: the reference run answered a Read; it must read its engine", g.TaskID)
		}
		r.tasks++
		if ref := read[g.TaskID](countingRows{w.Engine, &r.rows}); !reflect.DeepEqual(g.Output, ref) {
			r.t.Fatalf("task %s: output read before settling\n%+v\nthe engine's\n%+v", g.TaskID, g.Output, ref)
		}
	}
	return got, nil
}

// TestArenaSnapshotServesEngineRows holds read-before-settle to reading
// an engine that owns its memory after the run, on every task of a full
// interpretation with re-entry of the three paper datasets, on one task
// process and on eight.
func TestArenaSnapshotServesEngineRows(t *testing.T) {
	for _, p := range []scene.Params{scene.SF, scene.DC, scene.MOFF} {
		if testing.Short() {
			p = p.Scale(0.4)
		}
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", p.Name, workers), func(t *testing.T) {
				t.Parallel()
				d, err := NewDataset(p)
				if err != nil {
					t.Fatal(err)
				}
				r := &rowsRunner{t: t, pool: &tlp.Pool{Workers: workers}}
				in, err := d.Interpret(InterpretOptions{ReEntry: true, Runner: r})
				if err != nil {
					t.Fatal(err)
				}
				if !in.ModelFound || r.tasks < 100 || r.rows < 1000 {
					t.Fatalf("compared %d rows of %d tasks, model found %v: the run is too small to mean anything", r.rows, r.tasks, in.ModelFound)
				}
			})
		}
	}
}

// TestUndefinedLevelIsAnError: a Level outside 1-4 has no LCC units, so
// LCC and FA would run nothing and the interpretation would come back
// empty and clean.
func TestUndefinedLevelIsAnError(t *testing.T) {
	d := smallDC(t)
	for _, level := range []Level{7, -1} {
		if _, err := d.Interpret(InterpretOptions{Level: level}); err == nil {
			t.Errorf("Level %d: interpreted without error", level)
		}
	}
	if _, err := d.Interpret(InterpretOptions{}); err != nil {
		t.Errorf("the zero Level must default to Level3: %v", err)
	}
}

// TestInterpretRetainsNoGoroutine: an interpretation with no Runner runs
// on a private tlp.Pool that nobody closes; its task processes exit when
// each phase's queue is empty, so the interpretation leaves no goroutine
// behind.
func TestInterpretRetainsNoGoroutine(t *testing.T) {
	d := smallDC(t)
	before := runtime.NumGoroutine()
	if _, err := d.Interpret(InterpretOptions{Workers: 4, ReEntry: true}); err != nil {
		t.Fatal(err)
	}
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > before {
		t.Fatalf("%d goroutines after the interpretation, %d before", n, before)
	}
}
