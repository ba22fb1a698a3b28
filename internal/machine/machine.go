// Package machine is the deterministic virtual-time multiprocessor on
// which the SPAM/PSM parallelism experiments run. The paper's machine —
// a 16-processor Encore Multimax of ~1.5 MIPS NS32332 processors — is
// not available, so tasks are *executed* once on the real engine to
// produce cost logs, and those logs are then list-scheduled onto P
// simulated processors exactly the way the SPAM/PSM control process
// dispatches tasks from its queue: each free task process takes the
// next task from the queue.
//
// The simulation composes both axes of parallelism: T task processes
// pull whole tasks, and each task process may own M dedicated match
// processes that shrink its tasks' durations per the pmatch model.
package machine

import (
	"container/heap"

	"spampsm/internal/ops5"
	"spampsm/internal/pmatch"
	"spampsm/internal/stats"
)

// MIPS is the simulated processor speed (NS32332 ≈ 1.5 MIPS).
const MIPS = 1.5

// InstrToSec converts simulated instructions to simulated seconds.
func InstrToSec(instr float64) float64 { return instr / (MIPS * 1e6) }

// SecToInstr converts simulated seconds to instructions.
func SecToInstr(sec float64) float64 { return sec * MIPS * 1e6 }

// Overheads are the task-management costs of the SPAM/PSM runtime, in
// simulated instructions.
type Overheads struct {
	// QueuePerTask is charged to a task process for each task it fetches
	// from the shared queue (locking, dequeue, result hand-back). The
	// paper measured task management at under 0.1% of processing time.
	QueuePerTask float64
	// Fork is the one-time cost of forking one task process. The paper's
	// measurement interval begins after forking and initialization, so
	// the experiment harness leaves this at zero; it is modeled for
	// completeness.
	Fork float64
}

// DefaultOverheads reflects the paper's "less than 25 seconds over all
// tasks" task-management measurement: tens of milliseconds per task.
var DefaultOverheads = Overheads{QueuePerTask: 30000, Fork: 0}

// Task is one schedulable unit: a label, its cost log (instruction
// and memory records), and the decomposition subtree it belongs to
// (the focal-class group — used by the post-order traversal policy).
type Task struct {
	ID    string
	Log   *ops5.CostLog
	Group string
}

// Durations converts tasks to instruction durations under m dedicated
// match processes per task process.
func Durations(tasks []Task, m int, model pmatch.Model) []float64 {
	out := make([]float64, len(tasks))
	for i, t := range tasks {
		out[i] = model.TaskInstr(t.Log, m)
	}
	return out
}

// procHeap orders processors by next-free time.
type procEntry struct {
	free float64
	idx  int
}
type procHeap []procEntry

func (h procHeap) Len() int { return len(h) }
func (h procHeap) Less(i, j int) bool {
	if h[i].free != h[j].free {
		return h[i].free < h[j].free
	}
	return h[i].idx < h[j].idx
}
func (h procHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *procHeap) Push(x interface{}) { *h = append(*h, x.(procEntry)) }
func (h *procHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// newProcHeap returns procs processors, all free at start.
func newProcHeap(procs int, start float64) procHeap {
	h := make(procHeap, procs)
	for i := range h {
		h[i] = procEntry{free: start, idx: i}
	}
	heap.Init(&h)
	return h
}

// Schedule is the result of one simulated run.
type Schedule struct {
	Makespan float64   // instructions until the last task completes
	Busy     []float64 // per-processor busy instructions
	PerTask  []float64 // completion time of each task, in queue order
	// PeakMem is the high-water mark of the aggregate in-flight
	// modeled footprint (simulated bytes); ThrottleWaits counts the
	// dispatches the memory budget stalled. Both are zero for the
	// schedulers that do not model memory (Run, RunSynchronous).
	PeakMem       float64
	ThrottleWaits int
}

// Utilization returns mean processor utilization over the makespan.
func (s Schedule) Utilization() float64 {
	if s.Makespan <= 0 || len(s.Busy) == 0 {
		return 0
	}
	var b float64
	for _, x := range s.Busy {
		b += x
	}
	return b / (s.Makespan * float64(len(s.Busy)))
}

// ListSchedule is the list-scheduling kernel every simulated machine
// shares: n tasks in queue order over procs processors that are all
// free at start; each task goes to the earliest-free processor (ties
// to the lowest index), which is busy for cost(task, proc)
// instructions. What a machine charges beyond a task's own duration —
// queue overhead, message round-trips, page faults on a remote
// processor — lives in its cost closure, which is called once per
// task, in queue order.
func ListSchedule(n, procs int, start float64, cost func(task, proc int) float64) Schedule {
	if procs < 1 {
		procs = 1
	}
	h := newProcHeap(procs, start)
	busy := make([]float64, procs)
	per := make([]float64, n)
	var makespan float64
	for i := range per {
		p := heap.Pop(&h).(procEntry)
		c := cost(i, p.idx)
		p.free += c
		busy[p.idx] += c
		per[i] = p.free
		if p.free > makespan {
			makespan = p.free
		}
		heap.Push(&h, p)
	}
	return Schedule{Makespan: makespan, Busy: busy, PerTask: per}
}

// Run simulates T task processes pulling tasks (with the given
// durations, in queue order) from a shared queue: whenever a processor
// becomes free it takes the next task, paying the queue overhead.
// This is exactly the SPAM/PSM execution model.
func Run(durations []float64, taskProcs int, ov Overheads) Schedule {
	return ListSchedule(len(durations), taskProcs, ov.Fork, func(i, _ int) float64 {
		return durations[i] + ov.QueuePerTask
	})
}

// RunSynchronous models a synchronous parallel rule-firing system (the
// synchronous column of the paper's Table 4): the processes each take
// one task, then synchronize at a barrier before the next wave may
// begin. Under task-duration variance every wave lasts as long as its
// slowest member — the reason (Section 3.2, citing Mohan) SPAM/PSM
// fires asynchronously.
func RunSynchronous(durations []float64, taskProcs int, ov Overheads) Schedule {
	if taskProcs < 1 {
		taskProcs = 1
	}
	busy := make([]float64, taskProcs)
	per := make([]float64, len(durations))
	now := ov.Fork
	for start := 0; start < len(durations); start += taskProcs {
		end := start + taskProcs
		if end > len(durations) {
			end = len(durations)
		}
		var wave float64
		for i := start; i < end; i++ {
			cost := durations[i] + ov.QueuePerTask
			busy[(i-start)%taskProcs] += cost
			if cost > wave {
				wave = cost
			}
		}
		now += wave
		for i := start; i < end; i++ {
			per[i] = now
		}
	}
	return Schedule{Makespan: now, Busy: busy, PerTask: per}
}

// Config selects one point of the combined parallelism grid.
type Config struct {
	TaskProcs  int
	MatchProcs int // dedicated match processes per task process
}

// Processors returns the number of processors the configuration
// occupies: T task processes plus T*M match processes. (The control
// process and the OS processor are accounted separately, as in the
// paper's 16-processor budget.)
func (c Config) Processors() int { return c.TaskProcs + c.TaskProcs*c.MatchProcs }

// Experiment bundles a task set with the simulation models.
type Experiment struct {
	Tasks     []Task
	Model     pmatch.Model
	Overheads Overheads
}

// NewExperiment builds an experiment with default models.
func NewExperiment(tasks []Task) *Experiment {
	return &Experiment{Tasks: tasks, Model: pmatch.DefaultModel, Overheads: DefaultOverheads}
}

// BaselineInstr returns the baseline duration: one task process, no
// dedicated match processes.
func (e *Experiment) BaselineInstr() float64 {
	return e.RunConfig(Config{TaskProcs: 1}).Makespan
}

// RunConfig simulates one configuration.
func (e *Experiment) RunConfig(c Config) Schedule {
	durs := Durations(e.Tasks, c.MatchProcs, e.Model)
	return Run(durs, c.TaskProcs, e.Overheads)
}

// Speedup returns baseline/config time.
func (e *Experiment) Speedup(c Config) float64 {
	base := e.BaselineInstr()
	t := e.RunConfig(c).Makespan
	if t <= 0 {
		return 0
	}
	return base / t
}

// TLPSeries produces the task-level-parallelism speedup curve for
// 1..maxProcs task processes (no dedicated match processes) — the
// paper's Figure 6/8 axes.
func (e *Experiment) TLPSeries(name string, maxProcs int) stats.Series {
	base := e.BaselineInstr()
	s := stats.Series{Name: name}
	for t := 1; t <= maxProcs; t++ {
		sched := e.RunConfig(Config{TaskProcs: t})
		s.Add(float64(t), base/sched.Makespan)
	}
	return s
}

// MatchSeries produces the match-parallelism speedup curve for
// 0..maxProcs dedicated match processes with one task process — the
// paper's Figure 7/8 axes.
func (e *Experiment) MatchSeries(name string, maxProcs int) stats.Series {
	base := e.BaselineInstr()
	s := stats.Series{Name: name}
	for m := 0; m <= maxProcs; m++ {
		sched := e.RunConfig(Config{TaskProcs: 1, MatchProcs: m})
		s.Add(float64(m), base/sched.Makespan)
	}
	return s
}

// AmdahlLimit returns the match-parallelism asymptote of the whole task
// set: total time over non-match time.
func (e *Experiment) AmdahlLimit() float64 {
	var total, match float64
	for _, t := range e.Tasks {
		total += t.Log.TotalInstr()
		match += t.Log.MatchInstr()
	}
	rest := total - match
	if rest <= 0 {
		return 0
	}
	return total / rest
}

// MatchFraction returns the fraction of baseline time spent in match.
func (e *Experiment) MatchFraction() float64 {
	var total, match float64
	for _, t := range e.Tasks {
		total += t.Log.TotalInstr()
		match += t.Log.MatchInstr()
	}
	if total == 0 {
		return 0
	}
	return match / total
}

// PredictedCombined returns the multiplicative prediction for a
// combined configuration: speedup(T alone) × speedup(M alone), the
// quantity the paper validates in Table 9.
func (e *Experiment) PredictedCombined(c Config) float64 {
	st := e.Speedup(Config{TaskProcs: c.TaskProcs})
	sm := e.Speedup(Config{TaskProcs: 1, MatchProcs: c.MatchProcs})
	return st * sm
}
