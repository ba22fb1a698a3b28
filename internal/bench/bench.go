// Package bench regenerates every table and figure of the paper's
// evaluation: the phase statistics of Tables 1-3, the taxonomy of
// Table 4, the decomposition measurements of Tables 5-7, the baseline
// of Table 8, the multiplicative grid of Table 9, and Figures 3
// (ParaOPS5 match speedups), 6 (LCC task-level speedups), 7 (LCC match
// speedups), 8 (RTF speedups) and 9 (shared virtual memory).
//
// A Suite caches datasets and measurements so one invocation can
// produce several experiments without re-running SPAM.
package bench

import (
	"fmt"
	"sort"
	"strings"

	"spampsm/internal/core"
	"spampsm/internal/faults"
	"spampsm/internal/machine"
	"spampsm/internal/matchbench"
	"spampsm/internal/msgpass"
	"spampsm/internal/pmatch"
	"spampsm/internal/scene"
	"spampsm/internal/spam"
	"spampsm/internal/stats"
	"spampsm/internal/svm"
	"spampsm/internal/tlp"
)

// Datasets is the evaluation's dataset order.
var Datasets = []string{"SF", "DC", "MOFF"}

// Options scope the harness.
type Options struct {
	// FullScale is the scene scale factor for the full-dataset runs of
	// Tables 1-3 (the parallelism experiments use the representative
	// subsets, per the paper's footnote 4).
	FullScale float64
	// MaxTaskProcs is the task-process axis bound (paper: 14 of the 16
	// Encore processors, after the control process and the OS).
	MaxTaskProcs int
	// MaxMatchProcs is the match-process axis bound (paper: 13).
	MaxMatchProcs int
	// SubsetScale scales the representative subsets themselves; 1.0 is
	// the calibrated paper scale. Tests use smaller values.
	SubsetScale float64
	// FaultSeed seeds the ext-faults chaos experiment's deterministic
	// injection plan (0 picks the default seed).
	FaultSeed int64
	// CrashRate is the per-processor death probability for ext-faults'
	// plan-driven processor-failure row.
	CrashRate float64
	// Sched orders the task queue of every real interpretation the
	// harness runs (the shared policy vocabulary; results are
	// byte-identical across policies).
	Sched tlp.QueuePolicy
}

// DefaultOptions mirror the paper's experimental setup.
func DefaultOptions() Options {
	return Options{FullScale: 3, MaxTaskProcs: 14, MaxMatchProcs: 13}
}

// Suite lazily builds and caches datasets and measurements.
type Suite struct {
	Opt      Options
	datasets map[string]*spam.Dataset
	meas     map[string]*core.Measurement
}

// NewSuite builds an empty suite.
func NewSuite(opt Options) *Suite {
	if opt.FullScale <= 0 {
		opt.FullScale = 3
	}
	if opt.MaxTaskProcs <= 0 {
		opt.MaxTaskProcs = 14
	}
	if opt.MaxMatchProcs <= 0 {
		opt.MaxMatchProcs = 13
	}
	return &Suite{Opt: opt, datasets: map[string]*spam.Dataset{}, meas: map[string]*core.Measurement{}}
}

// Dataset returns the cached subset dataset.
func (s *Suite) Dataset(name string) (*spam.Dataset, error) {
	if d, ok := s.datasets[name]; ok {
		return d, nil
	}
	var d *spam.Dataset
	var err error
	if s.Opt.SubsetScale != 0 && s.Opt.SubsetScale != 1 {
		p, ok := scene.ParamsByName(name)
		if !ok {
			return nil, fmt.Errorf("bench: unknown dataset %q", name)
		}
		p = p.Scale(s.Opt.SubsetScale)
		p.Name = name
		d, err = spam.NewDataset(p)
	} else {
		d, err = core.LoadDataset(name)
	}
	if err != nil {
		return nil, err
	}
	s.datasets[name] = d
	return d, nil
}

// Measurement returns the measurement of one configuration.
// Capture-free measurements are cached across experiments;
// capture-enabled ones (whose activation forests occupy hundreds of
// megabytes) are never shared between experiments, so they are
// rebuilt on demand and left to the garbage collector afterwards.
func (s *Suite) Measurement(ds string, phase core.Phase, level spam.Level, capture bool) (*core.Measurement, error) {
	key := fmt.Sprintf("%s/%s/%d/%v", ds, phase, level, capture)
	if m, ok := s.meas[key]; ok {
		return m, nil
	}
	d, err := s.Dataset(ds)
	if err != nil {
		return nil, err
	}
	m, err := core.NewSystem(d, phase, level).Measure(capture)
	if err != nil {
		return nil, err
	}
	if !capture {
		s.meas[key] = m
	}
	return m, nil
}

// ---------------------------------------------------------------------------
// Tables 1-3: full-run phase statistics

// Tables123 reproduces the per-phase statistics of the three full
// datasets: total CPU time (in hours of the original Lisp system),
// production firings, effective productions/second, and hypothesis
// counts.
func (s *Suite) Tables123() (string, error) {
	var b strings.Builder
	logs := map[string]string{"SF": "log #63", "DC": "log #405", "MOFF": "log #415"}
	for _, name := range Datasets {
		p, _ := scene.ParamsByName(name)
		p = p.Scale(s.Opt.FullScale)
		p.Name = name + "-full"
		d, err := spam.NewDataset(p)
		if err != nil {
			return "", err
		}
		in, err := d.Interpret(spam.InterpretOptions{Workers: 1, ReEntry: true, Sched: s.Opt.Sched})
		if err != nil {
			return "", err
		}
		tb := stats.Table{
			Title:   fmt.Sprintf("Table 1-3 row: %s (%s), full dataset at scale %.1f", name, logs[name], s.Opt.FullScale),
			Headers: []string{"SPAM Phase", "RTF", "LCC", "FA", "MODEL", "Total"},
		}
		row := func(label string, f func(spam.PhaseRun) string, total string) {
			cells := []interface{}{label}
			for _, ph := range []string{"RTF", "LCC", "FA", "MODEL"} {
				cells = append(cells, f(*in.Phase(ph)))
			}
			cells = append(cells, total)
			tb.AddRow(cells...)
		}
		hours := func(p spam.PhaseRun) float64 {
			return machine.InstrToSec(p.Instr) * spam.LispFactor / 3600
		}
		var totalH float64
		var totalF int
		for _, ph := range in.Phases {
			totalH += hours(ph)
			totalF += ph.Firings
		}
		row("Total CPU Time (hours)", func(p spam.PhaseRun) string {
			return stats.FormatFloat(hours(p))
		}, stats.FormatFloat(totalH))
		row("Total #Firings", func(p spam.PhaseRun) string {
			return fmt.Sprintf("%d", p.Firings)
		}, fmt.Sprintf("%d", totalF))
		row("Effective Productions/Second", func(p spam.PhaseRun) string {
			h := hours(p)
			if h <= 0 {
				return "-"
			}
			return stats.FormatFloat(float64(p.Firings) / (h * 3600))
		}, stats.FormatFloat(float64(totalF)/(totalH*3600)))
		row("Total Hypotheses", func(p spam.PhaseRun) string {
			if p.Phase == "LCC" {
				return "N/A"
			}
			return fmt.Sprintf("%d", p.Hypotheses)
		}, "N/A")
		b.WriteString(tb.String())
		b.WriteString("\n")
	}
	return b.String(), nil
}

// ---------------------------------------------------------------------------
// Table 4: taxonomy (documentation)

// Table4 reprints the paper's taxonomy of task-level parallelism,
// locating SPAM/PSM within it.
func Table4() string {
	tb := stats.Table{
		Title:   "Table 4: Dimensions of task-level parallelism",
		Headers: []string{"Dimensions", "Synchronous :: Distribution", "Asynchronous :: Distribution"},
	}
	tb.AddRow("Implicit", "Ishida & Stolfo :: Rule; Ishida :: Rule; Oshisanwo & Dasiewicz :: Rule", "-")
	tb.AddRow("Explicit", "Soar :: None", "SPAM/PSM :: WME")
	return tb.String()
}

// ---------------------------------------------------------------------------
// Tables 5-7: decomposition-level measurements

// Tables567 reproduces the per-level task statistics (average time,
// standard deviation, coefficient of variance, task count) for each
// dataset, in seconds of the original Lisp system as the paper
// measured them.
func (s *Suite) Tables567() (string, error) {
	var b strings.Builder
	for _, name := range Datasets {
		d, err := s.Dataset(name)
		if err != nil {
			return "", err
		}
		sums, err := core.LevelStatistics(d)
		if err != nil {
			return "", err
		}
		tb := stats.Table{
			Title: fmt.Sprintf("Tables 5-7 row: average, standard deviation and coeff. of variance for %s", name),
			Headers: []string{"Level", "Avg time per task (sec)", "Standard deviation (sec)",
				"Coefficient of variance", "Number of tasks"},
		}
		for _, level := range []spam.Level{spam.Level4, spam.Level3, spam.Level2, spam.Level1} {
			sum := sums[level]
			tb.AddRow(fmt.Sprintf("Level %d", level), sum.Mean, sum.Stddev, sum.CoV, sum.N)
		}
		b.WriteString(tb.String())
		b.WriteString("\n")
	}
	return b.String(), nil
}

// ---------------------------------------------------------------------------
// Table 8: the baseline system

// Table8 reproduces the baseline (single task process) measurements of
// the LCC phase at Levels 2 and 3 on the three datasets: total time,
// task count, average time per task, productions fired and RHS actions.
// Times are in seconds of the optimized C/ParaOPS5 uniprocessor.
func (s *Suite) Table8() (string, error) {
	tb := stats.Table{
		Title: "Table 8: Measurements for baseline system on the datasets (optimized, ParaOPS5-based, uniprocessor)",
		Headers: []string{"Dataset", "Total time (sec)", "Number of tasks",
			"Avg time per task (sec)", "Prods fired", "RHS actions"},
	}
	for _, name := range Datasets {
		for _, level := range []spam.Level{spam.Level3, spam.Level2} {
			m, err := s.Measurement(name, core.LCC, level, false)
			if err != nil {
				return "", err
			}
			sum := m.TaskSummary()
			tb.AddRow(fmt.Sprintf("%s Level %d", name, level),
				machine.InstrToSec(m.BaselineInstr()), sum.N, sum.Mean, m.Firings, m.RHSActions)
		}
	}
	return tb.String(), nil
}

// ---------------------------------------------------------------------------
// Figure 3: ParaOPS5 match parallelism on match-intensive systems

// Fig3 reproduces the match-parallelism speedups of the three
// match-intensive OPS5 systems.
func (s *Suite) Fig3() (string, error) {
	var series []stats.Series
	for _, spec := range []matchbench.Spec{matchbench.Rubik, matchbench.Weaver, matchbench.Tourney} {
		log, _, err := matchbench.Run(spec)
		if err != nil {
			return "", err
		}
		series = append(series, matchbench.SpeedupSeries(spec.Name, log, s.Opt.MaxMatchProcs, pmatch.DefaultModel))
	}
	out := stats.RenderSeries("Figure 3: Speed-ups for OPS5 match parallelism (Rubik / Weaver / Tourney)",
		"match procs", series...)
	out += stats.RenderChart("", "match procs", "speedup", 14, series...)
	return out, nil
}

// ---------------------------------------------------------------------------
// Figure 6: LCC task-level speedups

// Fig6 reproduces the LCC task-level-parallelism speedup curves for
// Levels 3 and 2 on the three datasets.
func (s *Suite) Fig6() (string, error) {
	var b strings.Builder
	for _, level := range []spam.Level{spam.Level3, spam.Level2} {
		var series []stats.Series
		for _, name := range Datasets {
			m, err := s.Measurement(name, core.LCC, level, false)
			if err != nil {
				return "", err
			}
			series = append(series, m.TLPSeries(name, s.Opt.MaxTaskProcs))
		}
		b.WriteString(stats.RenderSeries(
			fmt.Sprintf("Figure 6: LCC speedup vs task-level processes (Level %d)", level),
			"task procs", series...))
		b.WriteString(stats.RenderChart("", "task procs", "speedup", 14, series...))
		b.WriteString("\n")
	}
	return b.String(), nil
}

// ---------------------------------------------------------------------------
// Figure 7: LCC match-parallelism speedups

// Fig7 reproduces the LCC match-parallelism speedups (Level 3) with
// their asymptotic (Amdahl) limits.
func (s *Suite) Fig7() (string, error) {
	var series []stats.Series
	var limits []string
	var peaks []string
	for _, name := range Datasets {
		m, err := s.Measurement(name, core.LCC, spam.Level3, true)
		if err != nil {
			return "", err
		}
		ser := m.MatchSeries(name, s.Opt.MaxMatchProcs)
		series = append(series, ser)
		limit := m.AmdahlLimit()
		limits = append(limits, fmt.Sprintf("%s=%.2f", name, limit))
		best, bestAt := 0.0, 0
		for _, p := range ser.Points {
			if p.Y > best {
				best, bestAt = p.Y, int(p.X)
			}
		}
		peaks = append(peaks, fmt.Sprintf("%s peak %.2f @ %d procs (%.0f%% of limit)",
			name, best, bestAt, 100*best/limit))
	}
	out := stats.RenderSeries("Figure 7: LCC speedup vs dedicated match processes (Level 3)",
		"match procs", series...)
	out += stats.RenderChart("", "match procs", "speedup", 12, series...)
	out += fmt.Sprintf("Asymptotic limits: %s\n%s\n", strings.Join(limits, " "), strings.Join(peaks, "; "))
	return out, nil
}

// ---------------------------------------------------------------------------
// Table 9: multiplicative speedups

// Table9 reproduces the combined task × match speedup grid for SF at
// Level 2: achieved speedups with multiplicative predictions in
// parentheses; configurations needing more than the machine's 14
// usable processors are marked with an asterisk.
func (s *Suite) Table9() (string, error) {
	m, err := s.Measurement("SF", core.LCC, spam.Level2, true)
	if err != nil {
		return "", err
	}
	tb := stats.Table{
		Title:   "Table 9: Multiplicative speed-ups in SPAM/PSM for SF Level 2 (predicted in parentheses; * = needs > 14 processors)",
		Headers: []string{"", "Match0", "Match1", "Match2", "Match3", "Match4"},
	}
	for t := 1; t <= 7; t++ {
		cells := []interface{}{fmt.Sprintf("Task%d", t)}
		for mp := 0; mp <= 4; mp++ {
			cfg := machine.Config{TaskProcs: t, MatchProcs: mp}
			if cfg.Processors() > s.Opt.MaxTaskProcs {
				cells = append(cells, "*")
				continue
			}
			achieved, predicted := m.Combined(t, mp)
			if mp == 0 {
				cells = append(cells, fmt.Sprintf("%.2f", achieved))
			} else if t == 1 {
				cells = append(cells, fmt.Sprintf("%.2f", achieved))
			} else {
				cells = append(cells, fmt.Sprintf("%.2f (%.2f)", achieved, predicted))
			}
		}
		tb.AddRow(cells...)
	}
	return tb.String(), nil
}

// ---------------------------------------------------------------------------
// Figure 8: the RTF phase

// Fig8 reproduces the RTF phase's speedups: task-level parallelism and
// match parallelism with its asymptotic limits.
func (s *Suite) Fig8() (string, error) {
	var tlpSeries, matchSeries []stats.Series
	var limits []string
	for _, name := range Datasets {
		m, err := s.Measurement(name, core.RTF, 0, true)
		if err != nil {
			return "", err
		}
		tlpSeries = append(tlpSeries, m.TLPSeries(name, s.Opt.MaxTaskProcs))
		matchSeries = append(matchSeries, m.MatchSeries(name, s.Opt.MaxMatchProcs))
		limits = append(limits, fmt.Sprintf("%s=%.2f", name, m.AmdahlLimit()))
	}
	out := stats.RenderSeries("Figure 8a: RTF speedup vs task-level processes", "task procs", tlpSeries...)
	out += stats.RenderChart("", "task procs", "speedup", 14, tlpSeries...)
	out += "\n"
	out += stats.RenderSeries("Figure 8b: RTF speedup vs dedicated match processes", "match procs", matchSeries...)
	out += stats.RenderChart("", "match procs", "speedup", 12, matchSeries...)
	out += fmt.Sprintf("Asymptotic limits: %s\n", strings.Join(limits, " "))
	return out, nil
}

// ---------------------------------------------------------------------------
// Figure 9: shared virtual memory

// Fig9 reproduces the shared-virtual-memory experiment: LCC Level 3 on
// a two-node cluster (13 processes on the first Encore, the rest on
// the second), against the pure task-level-parallelism curve, plus the
// observed translation loss.
func (s *Suite) Fig9() (string, error) {
	m, err := s.Measurement("SF", core.LCC, spam.Level3, false)
	if err != nil {
		return "", err
	}
	cfg := svm.DefaultConfig()
	node0 := 13
	total := 22
	svmSer, pure := m.SVMSeries("SF-L3", node0, total, cfg)
	out := stats.RenderSeries("Figure 9: Speedups with the shared virtual memory server (2nd Encore over 13 processes)",
		"task procs", svmSer, pure)
	out += stats.RenderChart("", "task procs", "speedup", 16, svmSer, pure)
	durs := machine.Durations(m.Exp.Tasks, 0, m.Exp.Model)
	loss := svm.TranslationLoss(durs, svm.Cluster{Node0Procs: node0, RemoteProcs: total - node0},
		cfg, m.Exp.Overheads)
	out += fmt.Sprintf("Translational effect at %d processes: equivalent to the loss of %.1f processors\n",
		total, loss)
	// The false-sharing pathology before data-layout remediation.
	bad := cfg
	bad.FalseSharing = true
	badSpeedup := svm.Speedup(durs, svm.Cluster{Node0Procs: node0, RemoteProcs: 9}, bad, m.Exp.Overheads)
	goodSpeedup := svm.Speedup(durs, svm.Cluster{Node0Procs: node0, RemoteProcs: 9}, cfg, m.Exp.Overheads)
	out += fmt.Sprintf("With false contention (before data-structure reorganization): %.2f vs %.2f after\n",
		badSpeedup, goodSpeedup)
	return out, nil
}

// ---------------------------------------------------------------------------
// Extensions and ablations (beyond the paper's measured experiments)

// ExtLevels is the grain-size ablation behind Section 4's methodology:
// the TLP speedup at every decomposition level on one dataset, showing
// why Levels 2 and 3 were chosen — Level 4's task/processor ratio
// caps its speedup at the class count, and Level 1 pays initialization
// overhead for no additional speedup.
func (s *Suite) ExtLevels() (string, error) {
	tb := stats.Table{
		Title: "Ablation: LCC speedup at 14 task processes by decomposition level (SF)",
		Headers: []string{"Level", "Tasks", "Speedup@14", "Mean task (sec)",
			"CoV", "Total (sec)"},
	}
	// Level 4 is the class-aggregated view of the Level-3 queue: nine
	// big tasks whose speedup is capped by the task/processor ratio.
	m3, err := s.Measurement("SF", core.LCC, spam.Level3, false)
	if err != nil {
		return "", err
	}
	groups := m3.GroupDurations()
	gsecs := make([]float64, len(groups))
	for i, g := range groups {
		gsecs[i] = machine.InstrToSec(g)
	}
	gsum := stats.Summarize(gsecs)
	base := machine.Run(groups, 1, m3.Exp.Overheads).Makespan
	sp4 := base / machine.Run(groups, s.Opt.MaxTaskProcs, m3.Exp.Overheads).Makespan
	tb.AddRow("Level 4", gsum.N, sp4, gsum.Mean, gsum.CoV, gsum.Sum)
	for _, level := range []spam.Level{spam.Level3, spam.Level2, spam.Level1} {
		m, err := s.Measurement("SF", core.LCC, level, false)
		if err != nil {
			return "", err
		}
		sum := m.TaskSummary()
		sp := m.Exp.Speedup(machine.Config{TaskProcs: s.Opt.MaxTaskProcs})
		tb.AddRow(fmt.Sprintf("Level %d", level), sum.N, sp, sum.Mean, sum.CoV,
			machine.InstrToSec(m.BaselineInstr()))
	}
	return tb.String(), nil
}

// ExtSched is the scheduling ablation the paper proposes as future
// work: processing the large tasks at the head of the queue ("a
// separate task queue for the larger tasks ... processed at the
// beginning of the phase") removes the tail-end effect.
func (s *Suite) ExtSched() (string, error) {
	m, err := s.Measurement("SF", core.LCC, spam.Level3, false)
	if err != nil {
		return "", err
	}
	durs := machine.Durations(m.Exp.Tasks, 0, m.Exp.Model)
	base := machine.Run(durs, 1, m.Exp.Overheads).Makespan
	lpt := append([]float64(nil), durs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(lpt)))
	tb := stats.Table{
		Title:   "Ablation: FIFO queue vs largest-task-first (SF Level 3)",
		Headers: []string{"Task procs", "FIFO speedup", "Largest-first speedup", "Gain %"},
	}
	for _, p := range []int{4, 8, 14, 20, 28} {
		fifo := base / machine.Run(durs, p, m.Exp.Overheads).Makespan
		first := base / machine.Run(lpt, p, m.Exp.Overheads).Makespan
		tb.AddRow(p, fifo, first, 100*(first-fifo)/fifo)
	}
	return tb.String(), nil
}

// ExtQueues is the separate-task-queues experiment of Section 7: one
// queue per Encore instead of a shared queue across the SVM. The paper
// reports it "would not change the results".
func (s *Suite) ExtQueues() (string, error) {
	m, err := s.Measurement("SF", core.LCC, spam.Level3, false)
	if err != nil {
		return "", err
	}
	durs := machine.Durations(m.Exp.Tasks, 0, m.Exp.Model)
	base := machine.Run(durs, 1, m.Exp.Overheads).Makespan
	cfg := svm.DefaultConfig()
	tb := stats.Table{
		Title:   "Ablation: shared vs per-Encore task queues on the SVM cluster (SF Level 3)",
		Headers: []string{"Cluster", "Shared-queue speedup", "Split-queue speedup"},
	}
	for _, cl := range []svm.Cluster{
		{Node0Procs: 13, RemoteProcs: 3},
		{Node0Procs: 13, RemoteProcs: 6},
		{Node0Procs: 13, RemoteProcs: 9},
	} {
		shared := base / svm.Run(durs, cl, cfg, m.Exp.Overheads).Makespan
		split := base / svm.RunSplitQueues(durs, cl, cfg, m.Exp.Overheads).Makespan
		tb.AddRow(fmt.Sprintf("13+%d", cl.RemoteProcs), shared, split)
	}
	return tb.String(), nil
}

// ExtSync reproduces the Section 3.2 argument for asynchronous
// production firing (citing Mohan): given a fixed amount of work, a
// synchronous system saturates under task-duration variance while the
// asynchronous system keeps speeding up. Measured on SPAM's actual
// task durations and on a variance-free workload of the same total.
func (s *Suite) ExtSync() (string, error) {
	m, err := s.Measurement("SF", core.LCC, spam.Level3, false)
	if err != nil {
		return "", err
	}
	durs := machine.Durations(m.Exp.Tasks, 0, m.Exp.Model)
	var total float64
	for _, d := range durs {
		total += d
	}
	uniform := make([]float64, len(durs))
	for i := range uniform {
		uniform[i] = total / float64(len(durs))
	}
	base := machine.Run(durs, 1, m.Exp.Overheads).Makespan
	baseU := machine.Run(uniform, 1, m.Exp.Overheads).Makespan
	tb := stats.Table{
		Title: "Ablation: synchronous vs asynchronous firing under task variance (SF Level 3)",
		Headers: []string{"Task procs", "Async (SPAM durations)", "Sync (SPAM durations)",
			"Async (no variance)", "Sync (no variance)"},
	}
	for _, p := range []int{2, 4, 8, 14, 20, 28} {
		tb.AddRow(p,
			base/machine.Run(durs, p, m.Exp.Overheads).Makespan,
			base/machine.RunSynchronous(durs, p, m.Exp.Overheads).Makespan,
			baseU/machine.Run(uniform, p, m.Exp.Overheads).Makespan,
			baseU/machine.RunSynchronous(uniform, p, m.Exp.Overheads).Makespan)
	}
	return tb.String(), nil
}

// ExtSuburban checks that the decomposition methodology generalizes to
// SPAM's second task area: TLP speedups for the suburban-housing
// domain.
func (s *Suite) ExtSuburban() (string, error) {
	d, err := spam.NewSuburbanDataset(scene.SuburbanParams{
		Name: "suburban", Seed: 1990, Blocks: 8, HousesPerBlock: 6, Verts: 12,
	})
	if err != nil {
		return "", err
	}
	m, err := core.NewSystem(d, core.LCC, spam.Level3).Measure(false)
	if err != nil {
		return "", err
	}
	ser := m.TLPSeries("suburban", s.Opt.MaxTaskProcs)
	out := stats.RenderSeries("Extension: suburban-housing LCC speedup vs task processes", "task procs", ser)
	sum := m.TaskSummary()
	out += fmt.Sprintf("%d tasks, mean %.2f s, CoV %.2f\n", sum.N, sum.Mean, sum.CoV)
	return out, nil
}

// ExtScale probes the paper's closing projection — "a potential
// speed-up of 50 to 100 fold may be achievable due to task-level
// parallelism" — by scheduling a 4× SF scene's LCC queue on machines
// far larger than the Encore, under both the FIFO queue and the
// largest-first fix.
func (s *Suite) ExtScale() (string, error) {
	factor := 4.0
	if s.Opt.SubsetScale != 0 {
		factor *= s.Opt.SubsetScale
	}
	p := scene.SF.Scale(factor)
	p.Name = "SF-x4"
	d, err := spam.NewDataset(p)
	if err != nil {
		return "", err
	}
	sys3 := core.NewSystem(d, core.LCC, spam.Level3)
	m3, err := sys3.Measure(false)
	if err != nil {
		return "", err
	}
	// Level 2 splits the outlier objects by constraint, lifting the
	// largest-indivisible-task ceiling the Level-3 queue hits.
	m2, err := core.NewSystem(d, core.LCC, spam.Level2).Measure(false)
	if err != nil {
		return "", err
	}
	tb := stats.Table{
		Title: fmt.Sprintf("Extension: the 50-100x projection — SF x4 (%d / %d tasks at Levels 3 / 2) on large machines",
			m3.NumTasks(), m2.NumTasks()),
		Headers: []string{"Processors", "L3 FIFO", "L3 largest-first", "L2 largest-first"},
	}
	// One common baseline — the Level-3 BASELINE configuration — so the
	// columns are directly comparable (Level 2's own serial run is
	// cheaper: its smaller per-task working memories do less match).
	base := machine.Run(machine.Durations(m3.Exp.Tasks, 0, m3.Exp.Model), 1, m3.Exp.Overheads).Makespan
	speed := func(m *core.Measurement, procs int, sorted bool) float64 {
		durs := machine.Durations(m.Exp.Tasks, 0, m.Exp.Model)
		if sorted {
			durs = append([]float64(nil), durs...)
			sort.Sort(sort.Reverse(sort.Float64Slice(durs)))
		}
		return base / machine.Run(durs, procs, m.Exp.Overheads).Makespan
	}
	for _, procs := range []int{14, 28, 56, 84, 112} {
		tb.AddRow(procs,
			speed(m3, procs, false),
			speed(m3, procs, true),
			speed(m2, procs, true))
	}
	return tb.String(), nil
}

// ExtMsgpass is the Section 9 future-work study: SPAM/PSM's task queue
// on a message-passing multicomputer, comparing static task
// partitioning against dynamic distribution under SPAM's task-duration
// variance.
func (s *Suite) ExtMsgpass() (string, error) {
	m, err := s.Measurement("SF", core.LCC, spam.Level3, false)
	if err != nil {
		return "", err
	}
	durs := machine.Durations(m.Exp.Tasks, 0, m.Exp.Model)
	lpt := append([]float64(nil), durs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(lpt)))
	tb := stats.Table{
		Title: "Extension: task-level parallelism on a message-passing multicomputer (SF Level 3)",
		Headers: []string{"Nodes", "Static round-robin", "Static balanced (oracle)",
			"Dynamic FIFO", "Dynamic largest-first"},
	}
	for _, n := range []int{4, 8, 14, 28, 56} {
		cfg := msgpass.DefaultConfig(n)
		tb.AddRow(n,
			msgpass.Speedup(durs, cfg, msgpass.StaticRoundRobin),
			msgpass.Speedup(durs, cfg, msgpass.StaticBalanced),
			msgpass.Speedup(durs, cfg, msgpass.Dynamic),
			msgpass.Speedup(lpt, cfg, msgpass.Dynamic))
	}
	return tb.String(), nil
}

// ExtFaults is the robustness experiment: what does recovery cost when
// the hardware misbehaves? Table A degrades the paper's 14-processor
// Encore configuration with mid-run processor deaths — the shared task
// queue simply reissues the dead processor's task, so the speedup
// degrades gracefully instead of the run dying. Table B degrades the
// Section 7/9 networks with message loss and timeout-driven
// retransmission. Both are driven by one deterministic fault plan, so
// a fixed -fault-seed reproduces every number.
func (s *Suite) ExtFaults() (string, error) {
	m, err := s.Measurement("SF", core.LCC, spam.Level3, false)
	if err != nil {
		return "", err
	}
	durs := machine.Durations(m.Exp.Tasks, 0, m.Exp.Model)
	ov := m.Exp.Overheads
	base := machine.Run(durs, 1, ov).Makespan
	var useful float64
	for _, d := range durs {
		useful += d
	}
	seed := s.Opt.FaultSeed
	if seed == 0 {
		seed = 1990
	}
	plan := faults.New(faults.Config{Seed: seed, CrashRate: s.Opt.CrashRate})
	procs := s.Opt.MaxTaskProcs
	clean := machine.Run(durs, procs, ov).Makespan

	tbA := stats.Table{
		Title: fmt.Sprintf("Extension: recovery overhead of processor deaths at %d task processes (SF Level 3, seed %d)",
			procs, seed),
		Headers: append([]string{"Deaths", "Speedup", "Overhead %"}, stats.RecoveryHeaders()...),
	}
	// Deaths staggered across the clean run: the k-th death kills
	// processor k at (k+1)/(n+1) of the fault-free makespan.
	for deaths := 0; deaths <= 3; deaths++ {
		var fs []faults.ProcFailure
		for k := 0; k < deaths; k++ {
			fs = append(fs, faults.ProcFailure{Proc: k, At: clean * float64(k+1) / float64(deaths+1)})
		}
		sched, rec := machine.RunWithFailures(durs, procs, ov, fs)
		row := []interface{}{deaths, base / sched.Makespan, rec.OverheadPercent(useful)}
		tbA.AddRow(append(row, rec.Row(machine.MIPS*1e6)...)...)
	}
	if s.Opt.CrashRate > 0 {
		fs := plan.ProcFailures(procs, s.Opt.CrashRate, clean)
		sched, rec := machine.RunWithFailures(durs, procs, ov, fs)
		row := []interface{}{fmt.Sprintf("plan p=%.2f", s.Opt.CrashRate),
			base / sched.Makespan, rec.OverheadPercent(useful)}
		tbA.AddRow(append(row, rec.Row(machine.MIPS*1e6)...)...)
	}

	tbB := stats.Table{
		Title: "Extension: message loss with timeout-and-retransmit on the SVM cluster (13+9) and the message-passing machine (14 nodes, dynamic)",
		Headers: []string{"Loss rate", "SVM speedup", "SVM retransmits", "SVM wasted (sec)",
			"Msgpass speedup", "Msgpass retransmits", "Msgpass wasted (sec)"},
	}
	cl := svm.Cluster{Node0Procs: 13, RemoteProcs: 9}
	svmCfg := svm.DefaultConfig()
	svmCfg.RetryTimeoutInstr = 2 * svmCfg.FaultLatencyInstr
	mpCfg := msgpass.DefaultConfig(14)
	mpCfg.RetransmitTimeoutInstr = 4 * mpCfg.MsgLatencyInstr
	for _, rate := range []float64{0, 0.01, 0.05, 0.10} {
		svmCfg.LossRate, mpCfg.LossRate = rate, rate
		svmCfg.FaultPlan, mpCfg.FaultPlan = plan, plan
		svmSched, svmRec := svm.RunFaulty(durs, cl, svmCfg, ov)
		mpSched, mpRec := msgpass.RunFaulty(durs, mpCfg, msgpass.Dynamic)
		tbB.AddRow(fmt.Sprintf("%.0f%%", 100*rate),
			base/svmSched.Makespan, svmRec.Retransmits, machine.InstrToSec(svmRec.WastedInstr),
			base/mpSched.Makespan, mpRec.Retransmits, machine.InstrToSec(mpRec.WastedInstr))
	}
	return tbA.String() + "\n" + tbB.String(), nil
}

// ---------------------------------------------------------------------------
// dispatch

// Names lists the paper-experiment identifiers in evaluation order.
func Names() []string {
	return []string{"tables123", "table4", "tables567", "table8", "fig3", "fig6", "fig7", "table9", "fig8", "fig9"}
}

// ExtNames lists the extension/ablation experiments beyond the paper.
func ExtNames() []string {
	return []string{"ext-levels", "ext-sched", "ext-sync", "ext-queues", "ext-msgpass", "ext-suburban", "ext-scale", "ext-faults", "ext-memsched"}
}

// Run executes one experiment by name.
func (s *Suite) Run(name string) (string, error) {
	switch name {
	case "tables123":
		return s.Tables123()
	case "table4":
		return Table4(), nil
	case "tables567":
		return s.Tables567()
	case "table8":
		return s.Table8()
	case "fig3":
		return s.Fig3()
	case "fig6":
		return s.Fig6()
	case "fig7":
		return s.Fig7()
	case "table9":
		return s.Table9()
	case "fig8":
		return s.Fig8()
	case "fig9":
		return s.Fig9()
	case "ext-levels":
		return s.ExtLevels()
	case "ext-sched":
		return s.ExtSched()
	case "ext-sync":
		return s.ExtSync()
	case "ext-queues":
		return s.ExtQueues()
	case "ext-msgpass":
		return s.ExtMsgpass()
	case "ext-suburban":
		return s.ExtSuburban()
	case "ext-scale":
		return s.ExtScale()
	case "ext-faults":
		return s.ExtFaults()
	case "ext-memsched":
		return s.ExtMemsched()
	default:
		return "", fmt.Errorf("bench: unknown experiment %q (want one of %s)", name,
			strings.Join(append(Names(), ExtNames()...), ", "))
	}
}

// CSVFor returns the figure experiments' data series as CSV documents,
// keyed by a suggested file name. Table experiments have no series and
// return nothing.
func (s *Suite) CSVFor(name string) (map[string]string, error) {
	out := map[string]string{}
	switch name {
	case "fig3":
		var series []stats.Series
		for _, spec := range []matchbench.Spec{matchbench.Rubik, matchbench.Weaver, matchbench.Tourney} {
			log, _, err := matchbench.Run(spec)
			if err != nil {
				return nil, err
			}
			series = append(series, matchbench.SpeedupSeries(spec.Name, log, s.Opt.MaxMatchProcs, pmatch.DefaultModel))
		}
		out["fig3.csv"] = stats.SeriesCSV("match_procs", series...)
	case "fig6":
		for _, level := range []spam.Level{spam.Level3, spam.Level2} {
			var series []stats.Series
			for _, ds := range Datasets {
				m, err := s.Measurement(ds, core.LCC, level, false)
				if err != nil {
					return nil, err
				}
				series = append(series, m.TLPSeries(ds, s.Opt.MaxTaskProcs))
			}
			out[fmt.Sprintf("fig6_level%d.csv", level)] = stats.SeriesCSV("task_procs", series...)
		}
	case "fig7":
		var series []stats.Series
		for _, ds := range Datasets {
			m, err := s.Measurement(ds, core.LCC, spam.Level3, true)
			if err != nil {
				return nil, err
			}
			series = append(series, m.MatchSeries(ds, s.Opt.MaxMatchProcs))
		}
		out["fig7.csv"] = stats.SeriesCSV("match_procs", series...)
	case "fig8":
		var tlpSeries, matchSeries []stats.Series
		for _, ds := range Datasets {
			m, err := s.Measurement(ds, core.RTF, 0, true)
			if err != nil {
				return nil, err
			}
			tlpSeries = append(tlpSeries, m.TLPSeries(ds, s.Opt.MaxTaskProcs))
			matchSeries = append(matchSeries, m.MatchSeries(ds, s.Opt.MaxMatchProcs))
		}
		out["fig8_tlp.csv"] = stats.SeriesCSV("task_procs", tlpSeries...)
		out["fig8_match.csv"] = stats.SeriesCSV("match_procs", matchSeries...)
	case "fig9":
		m, err := s.Measurement("SF", core.LCC, spam.Level3, false)
		if err != nil {
			return nil, err
		}
		svmSer, pure := m.SVMSeries("SF-L3", 13, 22, svm.DefaultConfig())
		out["fig9.csv"] = stats.SeriesCSV("task_procs", svmSer, pure)
	}
	return out, nil
}

// RunAll executes every paper experiment, then the extensions.
func (s *Suite) RunAll() (string, error) {
	var b strings.Builder
	for _, n := range append(Names(), ExtNames()...) {
		out, err := s.Run(n)
		if err != nil {
			return b.String(), fmt.Errorf("bench %s: %w", n, err)
		}
		fmt.Fprintf(&b, "=== %s ===\n%s\n", n, out)
	}
	return b.String(), nil
}
