package spam

import (
	"context"
	"reflect"
	"testing"

	"spampsm/internal/ops5"
	"spampsm/internal/tlp"
)

// TestSPAMDifferentialProductionVsReference is the full-rule-set
// differential oracle: a complete four-phase interpretation (RTF, LCC,
// FA with re-entry, MODEL) over the scaled DC scene must be observably
// identical on the production dataset and on its reference twin — same
// firings, same simulated instruction counts per phase, same fragments,
// consistent pairs, outcomes, functional areas, and final model. The
// twin's engines are the ops5 reference (each compiles its program
// privately, and its network sweeps every alpha memory of a WME's class
// instead of dispatching on constant tests) and its geometry is the
// exact one (Hypot kernels, per-call polygon measurements, no predicate
// memo, linear partner scans). The three oracles below take one axis
// each, and the rete, ops5 and geom oracles localise a difference
// further.
func TestSPAMDifferentialProductionVsReference(t *testing.T) {
	t.Parallel()
	d := smallDC(t)
	production := interpretOn(t, d)
	ref := referenceOf(d)
	reference := interpretOn(t, ref)
	compareInterpretations(t, "production", production, "reference", reference)
	if s := d.Store.GeoStats(); s.Hits+s.Misses == 0 {
		t.Error("the production run made no predicate-memo lookups: the check below is vacuous")
	}
	if s := ref.Store.GeoStats(); s.Hits+s.Misses != 0 {
		t.Errorf("the reference run made %d predicate-memo lookups", s.Hits+s.Misses)
	}
}

// TestSPAMDifferentialIndexedVsNaive is the matcher axis alone: the
// interpretation must be observably identical when every task engine,
// over the same production store, is instantiated from a template
// whose networks sweep every alpha memory of a WME's class instead of
// dispatching on constant tests.
func TestSPAMDifferentialIndexedVsNaive(t *testing.T) {
	t.Parallel()
	d := smallDC(t)
	indexed := interpretOn(t, d)
	naive := interpretBuilding(t, d, sweptTemplates(t, d))
	compareInterpretations(t, "indexed", indexed, "naive", naive)
}

// TestSPAMDifferentialGeoFastVsExact is the geometry axis alone: the
// interpretation must be observably identical when its production
// engines run over a reference store — exact Hypot kernels, per-call
// polygon measurements, linear partner scans and no predicate memo.
func TestSPAMDifferentialGeoFastVsExact(t *testing.T) {
	t.Parallel()
	d := smallDC(t)
	fast := interpretOn(t, d)
	ref := referenceOf(d)
	exact := interpretBuilding(t, ref, templateEngines)
	compareInterpretations(t, "fast-geo", fast, "exact-geo", exact)
	if s := d.Store.GeoStats(); s.Hits+s.Misses == 0 {
		t.Error("the fast run made no predicate-memo lookups: the check below is vacuous")
	}
	if s := ref.Store.GeoStats(); s.Hits+s.Misses != 0 {
		t.Errorf("the exact run made %d predicate-memo lookups", s.Hits+s.Misses)
	}
}

// engineBuilder builds one task engine over prog, borrowing the worker's
// match arena s (ops5.WithScratch).
type engineBuilder func(prog *ops5.Program, s *ops5.Scratch) (*ops5.Engine, error)

// templateEngines instantiates every engine from the Program's shared,
// cached template: production's construction.
func templateEngines(prog *ops5.Program, s *ops5.Scratch) (*ops5.Engine, error) {
	return ops5.NewEngine(prog, ops5.WithScratch(s))
}

// freshEngines compiles prog privately for every engine, dispatching on
// constant tests as production does.
func freshEngines(prog *ops5.Program, s *ops5.Scratch) (*ops5.Engine, error) {
	cp, err := ops5.CompileProgram(prog)
	if err != nil {
		return nil, err
	}
	return cp.NewEngine(ops5.WithScratch(s))
}

// referenceEngines builds every engine as the ops5 reference: a private
// compile whose networks sweep.
func referenceEngines(prog *ops5.Program, s *ops5.Scratch) (*ops5.Engine, error) {
	return ops5.NewEngine(prog, ops5.WithReference(), ops5.WithScratch(s))
}

// sweptTemplates compiles each of d's programs once with its constant
// tests withheld (ops5.CompileProgram with WithReference) and returns a
// builder that instantiates every engine from that shared template: the
// sweeping matcher without a compile per engine.
func sweptTemplates(t *testing.T, d *Dataset) engineBuilder {
	t.Helper()
	tmpl := map[*ops5.Program]*ops5.CompiledProgram{}
	for _, prog := range []*ops5.Program{d.Progs.RTF, d.Progs.LCC, d.Progs.FA, d.Progs.Model} {
		cp, err := ops5.CompileProgram(prog, ops5.WithReference())
		if err != nil {
			t.Fatal(err)
		}
		tmpl[prog] = cp
	}
	return func(prog *ops5.Program, s *ops5.Scratch) (*ops5.Engine, error) {
		return tmpl[prog].NewEngine(ops5.WithScratch(s))
	}
}

// rebuildingRunner runs every queue on a two-worker pool after rewriting
// each task to build its engine with build: from the task's shippable
// description (tlp.Task.Wire), as a cluster worker rebuilds a shipped
// task (Dataset.WireBuild), over d's store and with d's programs, but
// through the test's ops5 construction instead of loadEngine's.
type rebuildingRunner struct {
	d     *Dataset
	build engineBuilder
}

func (r rebuildingRunner) RunTasks(ctx context.Context, tasks []*tlp.Task) ([]*tlp.Result, error) {
	for i, task := range tasks {
		own := *task
		own.BuildWith = func(s *ops5.Scratch) (*ops5.Engine, error) {
			spec, err := task.Wire()
			if err != nil {
				return nil, err
			}
			e, err := r.build(phaseDefs[spec.Phase].prog(r.d.Progs), s)
			if err != nil {
				return nil, err
			}
			r.d.Store.Register(e)
			if err := e.AssertBatch(spec.Seeds); err != nil {
				return nil, err
			}
			return e, nil
		}
		own.Build = func() (*ops5.Engine, error) { return own.BuildWith(nil) }
		tasks[i] = &own
	}
	pool := tlp.Pool{Workers: 2}
	return pool.RunContext(ctx, tasks)
}

// interpretBuilding interprets d on two workers, with re-entry, every
// task engine built by build (rebuildingRunner).
func interpretBuilding(t *testing.T, d *Dataset, build engineBuilder) *Interpretation {
	t.Helper()
	in, err := d.Interpret(InterpretOptions{ReEntry: true, Runner: rebuildingRunner{d, build}})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// referenceOf returns d's reference twin: the same scene, knowledge base
// and programs over a reference store of its own (RegionStore.reference).
func referenceOf(d *Dataset) *Dataset {
	ref := *d
	ref.Store = NewRegionStore(d.Scene)
	ref.Store.reference = true
	return &ref
}

// capturing returns a copy of d, sharing its store, whose engines record
// their per-activation match forests.
func capturing(d *Dataset) *Dataset {
	c := *d
	c.capture = true
	return &c
}

// interpretOn interprets a dataset on two workers, with re-entry.
func interpretOn(t *testing.T, d *Dataset) *Interpretation {
	t.Helper()
	in, err := d.Interpret(InterpretOptions{Workers: 2, ReEntry: true})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// compareInterpretations asserts that two full interpretations are
// observably identical: same phase statistics (firings, tasks,
// simulated instruction counts), fragments, consistent pairs, LCC
// outcomes, functional areas, and final model.
func compareInterpretations(t *testing.T, aName string, a *Interpretation, bName string, b *Interpretation) {
	t.Helper()
	if len(a.Phases) != len(b.Phases) {
		t.Fatalf("phase count: %s %d %s %d", aName, len(a.Phases), bName, len(b.Phases))
	}
	for i := range a.Phases {
		ap, bp := &a.Phases[i], &b.Phases[i]
		if ap.Phase != bp.Phase || ap.Firings != bp.Firings || ap.Tasks != bp.Tasks {
			t.Errorf("phase %s: firings/tasks differ: %s %+v %s %+v", ap.Phase, aName, ap, bName, bp)
		}
		if ap.Instr != bp.Instr || ap.MatchInstr != bp.MatchInstr {
			t.Errorf("phase %s: simulated instructions differ: %s (%.0f, %.0f) %s (%.0f, %.0f)",
				ap.Phase, aName, ap.Instr, ap.MatchInstr, bName, bp.Instr, bp.MatchInstr)
		}
	}
	if !reflect.DeepEqual(a.Fragments, b.Fragments) {
		t.Errorf("fragments differ: %s %d %s %d", aName, len(a.Fragments), bName, len(b.Fragments))
	}
	if !reflect.DeepEqual(a.Pairs, b.Pairs) {
		t.Errorf("consistent pairs differ: %s %d %s %d", aName, len(a.Pairs), bName, len(b.Pairs))
	}
	if !reflect.DeepEqual(a.Outcomes, b.Outcomes) {
		t.Errorf("LCC outcomes differ: %s %d %s %d", aName, len(a.Outcomes), bName, len(b.Outcomes))
	}
	if !reflect.DeepEqual(a.FAs, b.FAs) {
		t.Errorf("functional areas differ: %s %d %s %d", aName, len(a.FAs), bName, len(b.FAs))
	}
	if a.ModelFound != b.ModelFound || !reflect.DeepEqual(a.Model, b.Model) {
		t.Errorf("final models differ: %s %+v %s %+v", aName, a.Model, bName, b.Model)
	}
	if a.TotalFirings() == 0 {
		t.Fatal("interpretation fired nothing: differential test is vacuous")
	}
}
