package spam

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"spampsm/internal/scene"
	"spampsm/internal/tlp"
	"spampsm/internal/wm"
)

// keptRows is what a cluster result frame ships of an engine: the rows
// its phase's keep rule keeps (all of them under a nil rule), counted.
type keptRows struct {
	tlp.Rows
	keep func(*wm.WME) bool
	n    *int
}

func (k keptRows) EachWME(class string, f func(*wm.WME)) {
	k.Rows.EachWME(class, func(w *wm.WME) {
		if k.keep == nil || k.keep(w) {
			*k.n++
			f(w)
		}
	})
}

// keptRowsRunner runs every queue serially on engines that own their
// memory and reads each clean task twice: over every row of its
// engine's extracted classes, and over the rows its phase keeps.
type keptRowsRunner struct {
	t         *testing.T
	tasks     map[string]int // per phase
	all, kept map[string]int // rows walked, per phase
	reEntry   int
}

func (r *keptRowsRunner) RunTasks(ctx context.Context, tasks []*tlp.Task) ([]*tlp.Result, error) {
	phases, reads := map[string]string{}, map[string]func(tlp.Rows) any{}
	owned := make([]*tlp.Task, len(tasks))
	for i, task := range tasks {
		spec, err := task.Wire()
		if err != nil {
			return nil, err
		}
		phases[task.ID], reads[task.ID] = spec.Phase, task.Read
		spec.Release()
		if strings.HasPrefix(task.ID, "lccr") {
			r.reEntry++
		}
		owned[i] = &tlp.Task{ID: task.ID, Build: task.Build} // no Read: the result keeps its engine
	}
	results, err := tlp.RunSerial(owned)
	if err != nil {
		return nil, err
	}
	for _, res := range results {
		if res.Err != nil {
			r.t.Fatalf("task %s: %v", res.TaskID, res.Err)
		}
		ph, read := phases[res.TaskID], reads[res.TaskID]
		n, k := 0, 0
		all := read(keptRows{res.Engine, nil, &n})
		kept := read(keptRows{res.Engine, phaseDefs[ph].keep, &k})
		r.tasks[ph]++
		r.all[ph] += n
		r.kept[ph] += k
		if !reflect.DeepEqual(all, kept) {
			r.t.Errorf("%s task %s: read over every row\n%+v\nover the kept rows\n%+v", ph, res.TaskID, all, kept)
		}
		res.Output = all
	}
	return results, nil
}

// TestDifferentialPhaseReadKeptRows holds every phase's keep rule — the
// rows of its extracted classes a cluster result frame ships — to its
// read: on every task of SF, DC and MOFF with re-entry, the read over
// the kept rows answers what it answers over all of them. LCC keeps
// only the checks that held, so its rule must keep fewer rows than
// there are, and every other phase keeps them all.
func TestDifferentialPhaseReadKeptRows(t *testing.T) {
	for _, p := range []scene.Params{scene.SF, scene.DC, scene.MOFF} {
		if testing.Short() {
			p = p.Scale(0.4)
		}
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			d, err := NewDataset(p)
			if err != nil {
				t.Fatal(err)
			}
			r := &keptRowsRunner{t: t, tasks: map[string]int{}, all: map[string]int{}, kept: map[string]int{}}
			in, err := d.Interpret(InterpretOptions{ReEntry: true, Runner: r})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("tasks %v, %d re-entry; rows read %v, kept %v", r.tasks, r.reEntry, r.all, r.kept)
			if !in.ModelFound || r.reEntry == 0 || len(in.Pairs) == 0 {
				t.Fatalf("%d re-entry tasks, %d pairs, model found %v: the run is too small to mean anything", r.reEntry, len(in.Pairs), in.ModelFound)
			}
			for ph, def := range phaseDefs {
				switch {
				case r.tasks[ph] == 0:
					t.Errorf("no %s task ran", ph)
				case def.keep != nil && r.kept[ph] >= r.all[ph]:
					t.Errorf("%s keeps %d of %d rows: its rule keeps them all", ph, r.kept[ph], r.all[ph])
				case def.keep == nil && r.kept[ph] != r.all[ph]:
					t.Errorf("%s keeps %d of %d rows without a rule", ph, r.kept[ph], r.all[ph])
				}
			}
		})
	}
}
