package spam

import (
	"reflect"
	"testing"

	"spampsm/internal/faults"
	"spampsm/internal/scene"
	"spampsm/internal/tlp"
)

// TestDifferentialInterpretUnderFaults is recovery across a whole
// interpretation: DC, re-entry on, run on a pool whose runs draw
// faults from a plan. Transient faults — build failures, panics and
// worker crashes that strike a task's first attempt only — are retried
// away: the run's outputs and per-phase statistics equal the clean
// run's, and two runs under the same plan report the same recovery,
// attempt by attempt. Permanent faults under Degraded give a partial
// interpretation that names every failed task, identical over two runs.
// The plan reaches the tasks only through tlp.RunConfig.Faults, which
// no product surface sets.
func TestDifferentialInterpretUnderFaults(t *testing.T) {
	t.Parallel()
	p := scene.DC.Scale(0.3)
	p.Name = "DC-faults"
	d, err := NewDataset(p)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := d.Interpret(InterpretOptions{Workers: 2, ReEntry: true})
	if err != nil {
		t.Fatal(err)
	}
	run := func(plan faults.Config, degraded bool) *Interpretation {
		t.Helper()
		in, err := d.Interpret(InterpretOptions{ReEntry: true, Degraded: degraded,
			Runner: tlp.BoundQueue{Queue: &tlp.Pool{Workers: 2}, Config: tlp.RunConfig{Faults: plan, MaxRetries: 3}}})
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	sameReports := func(name string, a, b *Interpretation) {
		t.Helper()
		for i := range a.Phases {
			if ar, br := a.Phases[i].Report, b.Phases[i].Report; !reflect.DeepEqual(ar, br) {
				t.Errorf("%s: phase %s reports differ over two runs:\n%s\n%s", name, a.Phases[i].Phase, ar, br)
			}
		}
	}

	transient := faults.Config{Seed: 42, BuildFailRate: 0.1, PanicRate: 0.1, CrashRate: 0.1}
	a, b := run(transient, false), run(transient, false)
	compareInterpretations(t, "clean", clean, "transient", a)
	if !SameOutputs(clean, b) {
		t.Error("the second transient-fault run's outputs differ from the clean run's")
	}
	sameReports("transient", a, b)
	var retries, injected int
	for _, ph := range a.Phases {
		retries += ph.Report.Retries
		injected += ph.Report.Injected
	}
	if retries == 0 || injected == 0 {
		t.Errorf("transient plan: %d retries, %d injected failures; the check above is vacuous", retries, injected)
	}

	permanent := faults.Config{Seed: 9, BuildFailRate: 0.05, PanicRate: 0.05, CrashRate: 0.05, PermanentFraction: 1}
	a, b = run(permanent, true), run(permanent, true)
	c := a.Completeness
	if c.Complete || c.Failed == 0 || len(c.FailedTasks) != c.Failed {
		t.Errorf("permanent plan: completeness %+v, want a partial result naming each failed task", c)
	}
	if !SameOutputs(a, b) || !reflect.DeepEqual(a.Completeness, b.Completeness) {
		t.Error("two degraded runs under the same permanent plan differ")
	}
	sameReports("permanent", a, b)
	if SameOutputs(a, clean) {
		t.Error("permanent plan: the degraded run lost nothing to its failed tasks")
	}
}
