// The memory-aware scheduling experiment: makespan against memory
// budget for every policy on the simulated machine, plus a stress
// scene demonstrating that the memory-bounded list scheduler completes
// within a budget that FIFO's natural peak exceeds. The policies live
// only here, on the simulated clock: the real runtime runs every queue
// in the order it was submitted.
package bench

import (
	"fmt"

	"spampsm/internal/core"
	"spampsm/internal/machine"
	"spampsm/internal/scene"
	"spampsm/internal/spam"
	"spampsm/internal/stats"
)

// memschedMaxProcs is the task-process count of the per-dataset tables
// (the projection machines of Section 9, not the Encore's 14).
const memschedMaxProcs = 64

// maxTaskMem is the largest single task's footprint, below which no
// schedule can stay.
func maxTaskMem(specs []machine.TaskSpec) float64 {
	var maxTask float64
	for _, s := range specs {
		if s.Mem > maxTask {
			maxTask = s.Mem
		}
	}
	return maxTask
}

// memschedBudgets derives the experiment's budget ladder for one task
// set: three distinct budgets strictly between the largest single
// task's footprint and the unbounded FIFO peak at full parallelism
// (above which the budget never binds).
func memschedBudgets(specs []machine.TaskSpec, ov machine.Overheads) []float64 {
	maxTask := maxTaskMem(specs)
	refPeak := machine.RunPolicy(specs, memschedMaxProcs, ov, machine.PolicyFIFO, 0).PeakMem
	if refPeak <= maxTask {
		// Degenerate queue (never two tasks in flight): spread budgets
		// above the single-task floor instead.
		return []float64{maxTask, 2 * maxTask, 3 * maxTask}
	}
	out := make([]float64, 0, 3)
	for _, f := range []float64{0.25, 0.5, 0.75} {
		out = append(out, maxTask+f*(refPeak-maxTask))
	}
	return out
}

// memschedStress builds the 10x-scale SF scene, picks the budget
// halfway between the largest task and the unbounded FIFO peak,
// schedules both ways and renders the summary line. It fails unless
// the FIFO peak exceeds the budget and the bounded peak stays within
// it.
func (s *Suite) memschedStress() (string, error) {
	factor := 10.0
	if s.Opt.SubsetScale != 0 {
		factor *= s.Opt.SubsetScale
	}
	p := scene.SF.Scale(factor)
	p.Name = "SF-x10"
	d, err := spam.NewDataset(p)
	if err != nil {
		return "", err
	}
	m, err := core.NewSystem(d, core.LCC, spam.Level3).Measure(false)
	if err != nil {
		return "", err
	}
	specs := m.Exp.Specs(0)
	ov := m.Exp.Overheads
	const procs = 32
	fifo := machine.RunPolicy(specs, procs, ov, machine.PolicyFIFO, 0)
	maxTask := maxTaskMem(specs)
	budget := maxTask + 0.5*(fifo.PeakMem-maxTask)
	bounded := machine.RunPolicy(specs, procs, ov, machine.PolicyPostOrder, budget)
	if fifo.PeakMem <= budget {
		return "", fmt.Errorf("memsched: stress FIFO peak %g does not exceed budget %g", fifo.PeakMem, budget)
	}
	if bounded.PeakMem > budget {
		return "", fmt.Errorf("memsched: stress bounded peak %g exceeds budget %g", bounded.PeakMem, budget)
	}
	return fmt.Sprintf("Stress: %s (%d tasks, %d procs), budget %s — FIFO peaks at %s (over budget); "+
		"%s stays at %s with %d throttle waits, makespan %s vs %s sec\n",
		p.Name, len(specs), procs, stats.FormatBytes(budget), stats.FormatBytes(fifo.PeakMem),
		machine.PolicyPostOrder, stats.FormatBytes(bounded.PeakMem), bounded.ThrottleWaits,
		stats.FormatFloat(machine.InstrToSec(bounded.Makespan)),
		stats.FormatFloat(machine.InstrToSec(fifo.Makespan))), nil
}

// ExtMemsched renders the experiment as text: one table per dataset's
// LCC Level-3 queue — every policy unbounded and at each budget of the
// ladder, at full parallelism — then the stress-scene summary.
func (s *Suite) ExtMemsched() (string, error) {
	var out string
	for _, ds := range Datasets {
		m, err := s.Measurement(ds, core.LCC, spam.Level3, false)
		if err != nil {
			return "", err
		}
		specs, ov := m.Exp.Specs(0), m.Exp.Overheads
		budgets := append([]float64{0}, memschedBudgets(specs, ov)...)
		tb := stats.Table{
			Title: fmt.Sprintf("Extension: makespan vs memory budget, %s LCC Level 3 at %d task processes",
				ds, memschedMaxProcs),
			Headers: []string{"Policy", "Budget", "Makespan (sec)", "Peak mem", "Throttle waits"},
		}
		for _, pol := range machine.Policies() {
			order := machine.Order(specs, pol)
			for _, budget := range budgets {
				sched := machine.RunSpecs(specs, order, memschedMaxProcs, ov, budget)
				label := "unbounded"
				if budget > 0 {
					label = stats.FormatBytes(budget)
				}
				tb.AddRow(pol.String(), label, machine.InstrToSec(sched.Makespan),
					stats.FormatBytes(sched.PeakMem), sched.ThrottleWaits)
			}
		}
		out += tb.String() + "\n"
	}
	stress, err := s.memschedStress()
	if err != nil {
		return "", err
	}
	return out + stress, nil
}
