package machine

import (
	"math"
	"testing"
	"testing/quick"

	"spampsm/internal/ops5"
	"spampsm/internal/rete"
)

func TestInstrSecConversion(t *testing.T) {
	if got := InstrToSec(1.5e6); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("1.5M instructions = %v s, want 1", got)
	}
	if got := SecToInstr(InstrToSec(777)); math.Abs(got-777) > 1e-9 {
		t.Error("round trip broken")
	}
}

func TestRunSingleProcessorSums(t *testing.T) {
	d := []float64{10, 20, 30}
	s := Run(d, 1, Overheads{})
	if s.Makespan != 60 {
		t.Errorf("makespan = %v", s.Makespan)
	}
	if s.Utilization() != 1.0 {
		t.Errorf("utilization = %v", s.Utilization())
	}
	if len(s.PerTask) != 3 || s.PerTask[2] != 60 {
		t.Errorf("per-task = %v", s.PerTask)
	}
}

func TestRunQueueDiscipline(t *testing.T) {
	// Queue order: [9, 1, 1, 1] on 2 processors. P0 takes 9; P1 takes
	// the three 1s. Makespan 9, not 6 (no preemption, no reordering).
	s := Run([]float64{9, 1, 1, 1}, 2, Overheads{})
	if s.Makespan != 9 {
		t.Errorf("makespan = %v, want 9", s.Makespan)
	}
	if s.Busy[0] != 9 || s.Busy[1] != 3 {
		t.Errorf("busy = %v", s.Busy)
	}
}

func TestTailEndEffect(t *testing.T) {
	// A big task at the END of the queue wrecks utilization — the
	// paper's observed tail-end effect — while the same task at the
	// FRONT schedules well. This is the motivation for the LPT queue
	// policy in the tlp package.
	small := make([]float64, 12)
	for i := range small {
		small[i] = 1
	}
	tail := append(append([]float64{}, small...), 10.0)
	front := append([]float64{10}, small...)
	st := Run(tail, 4, Overheads{})
	sf := Run(front, 4, Overheads{})
	if st.Makespan <= sf.Makespan {
		t.Errorf("tail-end: tail %v should be worse than front %v", st.Makespan, sf.Makespan)
	}
	if sf.Makespan != 10 {
		t.Errorf("front-loaded makespan = %v, want 10", sf.Makespan)
	}
}

func TestOverheads(t *testing.T) {
	s := Run([]float64{100, 100}, 2, Overheads{QueuePerTask: 5, Fork: 7})
	// Each proc: fork 7 + task 100 + queue 5 = 112.
	if s.Makespan != 112 {
		t.Errorf("makespan = %v, want 112", s.Makespan)
	}
}

func synthTask(cycles int, actCost float64, matchWidth int) Task {
	log := &ops5.CostLog{Init: 50}
	for i := 0; i < cycles; i++ {
		var roots []*rete.Activation
		var match float64
		for j := 0; j < matchWidth; j++ {
			a := &rete.Activation{Cost: 80}
			roots = append(roots, a)
			match += 80
		}
		log.Cycles = append(log.Cycles, ops5.CycleCost{Resolve: 20, Act: actCost, Match: match})
		log.CycleRoots = append(log.CycleRoots, roots)
	}
	return Task{ID: "synth", Log: log}
}

func synthExperiment(n int) *Experiment {
	var tasks []Task
	for i := 0; i < n; i++ {
		tasks = append(tasks, synthTask(30, 1000, 10))
	}
	e := NewExperiment(tasks)
	e.Overheads = Overheads{QueuePerTask: 100}
	return e
}

func TestTLPNearLinear(t *testing.T) {
	e := synthExperiment(280)
	s := e.TLPSeries("tlp", 14)
	y1, _ := s.YAt(1)
	if math.Abs(y1-1) > 1e-9 {
		t.Errorf("speedup at 1 proc = %v, want 1", y1)
	}
	y14, _ := s.YAt(14)
	if y14 < 11 || y14 > 14 {
		t.Errorf("speedup at 14 procs = %v, want near linear (>= 11)", y14)
	}
	// Monotone nondecreasing.
	for p := 2; p <= 14; p++ {
		ya, _ := s.YAt(float64(p - 1))
		yb, _ := s.YAt(float64(p))
		if yb < ya-1e-9 {
			t.Errorf("TLP speedup decreased at %d procs: %v -> %v", p, ya, yb)
		}
	}
}

func TestMatchSeriesBounded(t *testing.T) {
	e := synthExperiment(20)
	limit := e.AmdahlLimit()
	s := e.MatchSeries("match", 13)
	if s.MaxY() > limit {
		t.Errorf("match speedup %v exceeds Amdahl limit %v", s.MaxY(), limit)
	}
	y0, _ := s.YAt(0)
	if math.Abs(y0-1) > 1e-9 {
		t.Errorf("match speedup at 0 = %v, want 1 (baseline)", y0)
	}
	if s.MaxY() <= 1.05 {
		t.Errorf("match parallelism should help some: max %v", s.MaxY())
	}
}

func TestMultiplicativeComposition(t *testing.T) {
	e := synthExperiment(120)
	for _, cfg := range []Config{{2, 1}, {4, 2}, {3, 3}} {
		achieved := e.Speedup(cfg)
		predicted := e.PredictedCombined(cfg)
		rel := math.Abs(achieved-predicted) / predicted
		if rel > 0.15 {
			t.Errorf("config %+v: achieved %v vs predicted %v (%.0f%% apart)",
				cfg, achieved, predicted, rel*100)
		}
	}
}

func TestConfigProcessors(t *testing.T) {
	if (Config{TaskProcs: 4, MatchProcs: 2}).Processors() != 12 {
		t.Error("4 + 4*2 = 12")
	}
	if (Config{TaskProcs: 4, MatchProcs: 3}).Processors() != 16 {
		t.Error("4 + 4*3 = 16")
	}
}

func TestMatchFraction(t *testing.T) {
	e := synthExperiment(5)
	f := e.MatchFraction()
	if f <= 0 || f >= 1 {
		t.Errorf("match fraction = %v", f)
	}
	limit := e.AmdahlLimit()
	if math.Abs(limit-1/(1-f)) > 1e-6 {
		t.Errorf("limit %v inconsistent with fraction %v", limit, f)
	}
}

func TestRunSynchronousWaves(t *testing.T) {
	// 4 tasks on 2 procs: waves (3,1) and (2,2) → 3 + 2 = 5.
	s := RunSynchronous([]float64{3, 1, 2, 2}, 2, Overheads{})
	if s.Makespan != 5 {
		t.Errorf("makespan = %v, want 5", s.Makespan)
	}
	if s.PerTask[0] != 3 || s.PerTask[3] != 5 {
		t.Errorf("per-task = %v", s.PerTask)
	}
}

func TestSynchronousSaturatesUnderVariance(t *testing.T) {
	// The Section 3.2 claim: with variance, synchronous firing loses to
	// asynchronous; without variance they coincide.
	varied := make([]float64, 64)
	uniform := make([]float64, 64)
	s := uint64(5)
	var total float64
	for i := range varied {
		s = s*6364136223846793005 + 1442695040888963407
		varied[i] = float64(s%1000) + 50
		total += varied[i]
	}
	for i := range uniform {
		uniform[i] = total / float64(len(uniform))
	}
	async := Run(varied, 8, Overheads{}).Makespan
	sync := RunSynchronous(varied, 8, Overheads{}).Makespan
	if sync <= async {
		t.Errorf("sync (%v) should be slower than async (%v) under variance", sync, async)
	}
	asyncU := Run(uniform, 8, Overheads{}).Makespan
	syncU := RunSynchronous(uniform, 8, Overheads{}).Makespan
	if math.Abs(syncU-asyncU) > 1e-6 {
		t.Errorf("without variance sync (%v) should equal async (%v)", syncU, asyncU)
	}
}

func TestSynchronousWorkConserved(t *testing.T) {
	durs := []float64{5, 1, 9, 2, 4}
	s := RunSynchronous(durs, 3, Overheads{QueuePerTask: 1})
	var busy, want float64
	for _, b := range s.Busy {
		busy += b
	}
	for _, d := range durs {
		want += d + 1
	}
	if math.Abs(busy-want) > 1e-9 {
		t.Errorf("busy %v != work %v", busy, want)
	}
}

func TestQuickScheduleInvariants(t *testing.T) {
	f := func(seed uint8, procs8 uint8) bool {
		procs := int(procs8%15) + 1
		s := uint64(seed) + 1
		durs := make([]float64, 40)
		var sum float64
		for i := range durs {
			s = s*6364136223846793005 + 1442695040888963407
			durs[i] = float64(s%1000) + 1
			sum += durs[i]
		}
		sched := Run(durs, procs, Overheads{})
		// Makespan within [sum/procs, sum]; utilization within (0,1].
		if sched.Makespan < sum/float64(procs)-1e-9 || sched.Makespan > sum+1e-9 {
			return false
		}
		u := sched.Utilization()
		return u > 0 && u <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickWorkConserved(t *testing.T) {
	f := func(seed uint8, procs8 uint8) bool {
		procs := int(procs8%8) + 1
		s := uint64(seed) + 7
		durs := make([]float64, 25)
		var sum float64
		for i := range durs {
			s = s*2862933555777941757 + 3037000493
			durs[i] = float64(s%500) + 1
			sum += durs[i]
		}
		sched := Run(durs, procs, Overheads{})
		var busy float64
		for _, b := range sched.Busy {
			busy += b
		}
		return math.Abs(busy-sum) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
