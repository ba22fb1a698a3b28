// Package core is the public face of SPAM/PSM, the paper's
// contribution: explicit, asynchronous, working-memory-distributed
// task-level parallelism for a production-system vision workload.
//
// A System wraps one dataset and one SPAM phase (RTF or LCC) at a
// chosen decomposition level. It can:
//
//   - build the task queue (the control process's initialization),
//   - execute it for real on a goroutine pool (tlp),
//   - measure it serially and replay the cost logs on the virtual-time
//     multiprocessor (machine) to produce the paper's speedup curves,
//   - compose match parallelism (pmatch) with task-level parallelism,
//   - and run the queue across a simulated two-node shared virtual
//     memory cluster (svm).
package core

import (
	"fmt"
	"sync"

	"spampsm/internal/cluster"
	"spampsm/internal/machine"
	"spampsm/internal/ops5"
	"spampsm/internal/scene"
	"spampsm/internal/spam"
	"spampsm/internal/stats"
	"spampsm/internal/svm"
	"spampsm/internal/tlp"
)

// Phase selects the SPAM phase a System parallelizes. The paper
// parallelizes LCC (constraint satisfaction, the most expensive phase)
// and RTF (heuristic classification, the most OPS5-traditional one).
type Phase string

// Parallelized phases.
const (
	RTF Phase = "RTF"
	LCC Phase = "LCC"
)

// airportShared is the process-wide compiled airport knowledge base:
// rule compilation and Rete template construction happen once, and
// every dataset LoadDataset returns shares them (engine instantiation
// from a shared Program is concurrency-safe and deterministic).
var airportShared struct {
	once  sync.Once
	kb    *spam.KB
	progs *spam.Programs
	err   error
}

// LoadDataset builds one of the three calibrated airport datasets by
// name: "SF", "DC" or "MOFF". The airport rule programs are compiled
// once per process and shared across every returned dataset.
func LoadDataset(name string) (*spam.Dataset, error) {
	p, ok := scene.ParamsByName(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown dataset %q (want SF, DC or MOFF)", name)
	}
	airportShared.once.Do(func() {
		airportShared.kb = spam.AirportKB()
		airportShared.progs, airportShared.err = spam.BuildPrograms(airportShared.kb)
	})
	if airportShared.err != nil {
		return nil, airportShared.err
	}
	return spam.NewDatasetWith(scene.Generate(p), airportShared.kb, airportShared.progs), nil
}

// ClusterSpec returns the shippable dataset spec for one of the named
// airport datasets, so cluster workers regenerate exactly what
// LoadDataset builds locally.
func ClusterSpec(name string) (cluster.DatasetSpec, error) {
	p, ok := scene.ParamsByName(name)
	if !ok {
		return cluster.DatasetSpec{}, fmt.Errorf("core: unknown dataset %q (want SF, DC or MOFF)", name)
	}
	return cluster.AirportSpec(p), nil
}

// System is one SPAM/PSM configuration: a dataset, a phase, and a
// decomposition level.
type System struct {
	Dataset *spam.Dataset
	Phase   Phase
	Level   spam.Level // LCC decomposition level; ignored for RTF
	// RTFBatch is the RTF batch size (regions per task).
	RTFBatch int

	frags []*spam.Fragment // cached RTF output for LCC task building
}

// NewSystem builds a System. For LCC, level selects the decomposition
// (the paper's experiments use Levels 2 and 3).
func NewSystem(d *spam.Dataset, phase Phase, level spam.Level) *System {
	return &System{Dataset: d, Phase: phase, Level: level, RTFBatch: 3}
}

// fragments runs (and caches) the RTF phase serially to obtain the
// fragment hypotheses the LCC queue is built from.
func (s *System) fragments() ([]*spam.Fragment, error) {
	if s.frags != nil {
		return s.frags, nil
	}
	tasks := spam.BuildRTFTasks(s.Dataset.KB, s.Dataset.Store, s.Dataset.Progs.RTF, s.RTFBatch, false)
	results, err := tlp.RunSerial(tasks)
	if err != nil {
		return nil, err
	}
	if err := tlp.FirstError(results); err != nil {
		return nil, err
	}
	s.frags = spam.ExtractFragments(results)
	return s.frags, nil
}

// BuildTasks constructs the phase's task queue. With capture enabled
// the tasks record per-activation match forests for the
// match-parallelism simulation.
func (s *System) BuildTasks(capture bool) ([]*tlp.Task, error) {
	switch s.Phase {
	case RTF:
		return spam.BuildRTFTasks(s.Dataset.KB, s.Dataset.Store, s.Dataset.Progs.RTF, s.RTFBatch, capture), nil
	case LCC:
		frags, err := s.fragments()
		if err != nil {
			return nil, err
		}
		level := s.Level
		if level == 0 {
			level = spam.Level3
		}
		return spam.BuildLCCTasks(s.Dataset.KB, s.Dataset.Store, s.Dataset.Progs.LCC, frags, level, capture), nil
	default:
		return nil, fmt.Errorf("core: unknown phase %q", s.Phase)
	}
}

// RunParallel executes the queue for real on a goroutine pool with the
// given number of task processes.
func (s *System) RunParallel(workers int) ([]*tlp.Result, error) {
	tasks, err := s.BuildTasks(false)
	if err != nil {
		return nil, err
	}
	return (&tlp.Pool{Workers: workers}).Run(tasks)
}

// Measurement is a serially-executed queue whose cost logs drive the
// virtual-time parallelism experiments.
type Measurement struct {
	System     *System
	Exp        *machine.Experiment
	Firings    int
	RHSActions int
	TaskTimes  []float64 // per-task serial instructions, in queue order
	TaskGroups []string  // per-task aggregation group (focal class)
}

// Measure executes the queue once on one task process, capturing cost
// logs. This is the paper's BASELINE configuration plus
// instrumentation; all speedups are computed against it.
func (s *System) Measure(capture bool) (*Measurement, error) {
	tasks, err := s.BuildTasks(capture)
	if err != nil {
		return nil, err
	}
	// A measurement only needs cost logs and statistics; dropping each
	// task's engine (its Rete network and working memory) keeps large
	// queues from pinning gigabytes.
	pool := &tlp.Pool{Workers: 1, DropEngines: true}
	results, err := pool.Run(tasks)
	if err != nil {
		return nil, err
	}
	if err := tlp.FirstError(results); err != nil {
		return nil, err
	}
	byID := map[string]string{}
	for _, t := range tasks {
		byID[t.ID] = t.Group
	}
	m := &Measurement{System: s}
	var mtasks []machine.Task
	for _, r := range results {
		mtasks = append(mtasks, machine.Task{ID: r.TaskID, Log: r.Log, Group: byID[r.TaskID]})
		m.Firings += r.Stats.Firings
		m.RHSActions += r.Stats.RHSActions
		m.TaskTimes = append(m.TaskTimes, r.Stats.TotalInstr())
		m.TaskGroups = append(m.TaskGroups, byID[r.TaskID])
	}
	m.Exp = machine.NewExperiment(mtasks)
	return m, nil
}

// GroupDurations aggregates the per-task instruction durations by task
// group (the focal object's class), in first-appearance order. This is
// the Level-4 view of a Level-3 measurement: the paper's Tables 5-7
// attribute one run's time at several granularities.
func (m *Measurement) GroupDurations() []float64 {
	order := []string{}
	acc := map[string]float64{}
	for i, g := range m.TaskGroups {
		if _, ok := acc[g]; !ok {
			order = append(order, g)
		}
		acc[g] += m.TaskTimes[i]
	}
	out := make([]float64, len(order))
	for i, g := range order {
		out[i] = acc[g]
	}
	return out
}

// NumTasks returns the queue length.
func (m *Measurement) NumTasks() int { return len(m.TaskTimes) }

// BaselineInstr returns the serial execution time in instructions
// (including per-task queue overhead).
func (m *Measurement) BaselineInstr() float64 { return m.Exp.BaselineInstr() }

// TaskSummary returns the per-task duration statistics in simulated
// seconds — the numbers behind Tables 5-8.
func (m *Measurement) TaskSummary() stats.Summary {
	secs := make([]float64, len(m.TaskTimes))
	for i, t := range m.TaskTimes {
		secs[i] = machine.InstrToSec(t)
	}
	return stats.Summarize(secs)
}

// TLPSeries returns the task-level-parallelism speedup curve for
// 1..maxProcs task processes (Figures 6 and 8).
func (m *Measurement) TLPSeries(name string, maxProcs int) stats.Series {
	return m.Exp.TLPSeries(name, maxProcs)
}

// MatchSeries returns the match-parallelism speedup curve for
// 0..maxProcs dedicated match processes (Figures 7 and 8). It requires
// a capture-enabled measurement.
func (m *Measurement) MatchSeries(name string, maxProcs int) stats.Series {
	return m.Exp.MatchSeries(name, maxProcs)
}

// AmdahlLimit returns the theoretical match-parallelism asymptote.
func (m *Measurement) AmdahlLimit() float64 { return m.Exp.AmdahlLimit() }

// MatchFraction returns the workload's match fraction.
func (m *Measurement) MatchFraction() float64 { return m.Exp.MatchFraction() }

// Combined returns the achieved and multiplicatively-predicted speedup
// of a combined (task × match) configuration (Table 9).
func (m *Measurement) Combined(taskProcs, matchProcs int) (achieved, predicted float64) {
	cfg := machine.Config{TaskProcs: taskProcs, MatchProcs: matchProcs}
	return m.Exp.Speedup(cfg), m.Exp.PredictedCombined(cfg)
}

// SVMSeries returns the shared-virtual-memory speedup curve (Figure 9):
// processors 1..node0Max stay on the home Encore; beyond that they are
// placed on the remote node. pure TLP values come from the same logs
// without SVM overheads.
func (m *Measurement) SVMSeries(name string, node0Max, totalMax int, cfg svm.Config) (svmSeries, pure stats.Series) {
	durs := machine.Durations(m.Exp.Tasks, 0, m.Exp.Model)
	base := machine.Run(durs, 1, m.Exp.Overheads).Makespan
	svmSeries = stats.Series{Name: name + "-svm"}
	pure = stats.Series{Name: name + "-pure-tlp"}
	for p := 1; p <= totalMax; p++ {
		cl := svm.Cluster{Node0Procs: p}
		if p > node0Max {
			cl = svm.Cluster{Node0Procs: node0Max, RemoteProcs: p - node0Max}
		}
		t := svm.Run(durs, cl, cfg, m.Exp.Overheads).Makespan
		svmSeries.Add(float64(p), base/t)
		pt := machine.Run(durs, p, m.Exp.Overheads).Makespan
		pure.Add(float64(p), base/pt)
	}
	return svmSeries, pure
}

// LevelStatistics measures the LCC decomposition at every level,
// returning per-level task-duration summaries — the methodology of
// Section 4 (Tables 5-7). Times are reported in simulated seconds of
// the original Lisp system (the paper instrumented the Lisp SPAM).
//
// Levels 1-3 are measured by actually executing their decompositions.
// Level 4 is the per-class aggregation of the Level-3 measurement,
// as in the paper, where one instrumented run was attributed at each
// granularity (executing merged class-wide working memories would
// additionally grow the match cost and break the tables' property
// that every level accounts for the same total time).
func LevelStatistics(d *spam.Dataset) (map[spam.Level]stats.Summary, error) {
	out := map[spam.Level]stats.Summary{}
	toLispSecs := func(instr []float64) []float64 {
		secs := make([]float64, len(instr))
		for i, t := range instr {
			secs[i] = machine.InstrToSec(t) * spam.LispFactor
		}
		return secs
	}
	for _, level := range []spam.Level{Level3, Level2, Level1} {
		sys := NewSystem(d, LCC, level)
		m, err := sys.Measure(false)
		if err != nil {
			return nil, fmt.Errorf("core: level %d: %w", level, err)
		}
		out[level] = stats.Summarize(toLispSecs(m.TaskTimes))
		if level == Level3 {
			out[Level4] = stats.Summarize(toLispSecs(m.GroupDurations()))
		}
	}
	return out, nil
}

// Re-exported decomposition levels for convenience.
const (
	Level1 = spam.Level1
	Level2 = spam.Level2
	Level3 = spam.Level3
	Level4 = spam.Level4
)

// TaskLogsOf extracts the cost logs of a measurement in queue order.
func (m *Measurement) TaskLogsOf() []*ops5.CostLog {
	logs := make([]*ops5.CostLog, 0, len(m.Exp.Tasks))
	for _, t := range m.Exp.Tasks {
		logs = append(logs, t.Log)
	}
	return logs
}
