package spam

import (
	"context"
	"fmt"
	"testing"

	"spampsm/internal/scene"
	"spampsm/internal/tlp"
)

// rowsRunner runs every queue twice: on a pool whose workers lend their
// arenas — so each clean task's Extract rows are copied out before its
// engine, working memory included, is settled — and serially on engines
// that own their memory and are read directly, which is how every
// result was read before working memory moved into the arena. The two
// must serve the same rows, per class and in order.
type rowsRunner struct {
	t     *testing.T
	pool  *tlp.Pool
	tasks int
	rows  int
}

func (r *rowsRunner) RunTasks(ctx context.Context, tasks []*tlp.Task) ([]*tlp.Result, error) {
	got, err := r.pool.RunContext(ctx, tasks)
	if err != nil {
		return nil, err
	}
	owned := make([]*tlp.Task, len(tasks))
	extract := map[string][]string{}
	for i, t := range tasks {
		owned[i] = &tlp.Task{ID: t.ID, Build: t.Build}
		extract[t.ID] = t.Extract
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
		if g.Snapshot == nil || g.Engine == nil || g.Engine.Memory().Size() != 0 {
			r.t.Errorf("task %s: want a snapshot and a settled, empty engine", g.TaskID)
		}
		if w.Snapshot != nil {
			r.t.Fatalf("task %s: the reference run took a snapshot; it must read its engine", g.TaskID)
		}
		r.tasks++
		for _, class := range extract[g.TaskID] {
			gr, wr := g.WMEs(class), w.WMEs(class)
			if len(gr) != len(wr) {
				r.t.Fatalf("task %s: %d %s rows in the snapshot, %d on the engine", g.TaskID, len(gr), class, len(wr))
			}
			for i := range gr {
				if gr[i].TimeTag != wr[i].TimeTag || gr[i].String() != wr[i].String() {
					r.t.Fatalf("task %s: %s row %d is %d %s, the engine's is %d %s", g.TaskID, class, i, gr[i].TimeTag, gr[i], wr[i].TimeTag, wr[i])
				}
			}
			r.rows += len(gr)
		}
	}
	return got, nil
}

// TestArenaSnapshotServesEngineRows holds snapshot-before-settle to the
// rows Engine.WMEs serves, on every task of a full interpretation with
// re-entry of the three paper datasets, on one task process and on
// eight.
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
