package matchbench

import (
	"fmt"
	"strings"
	"testing"

	"spampsm/internal/ops5"
	"spampsm/internal/pmatch"
	"spampsm/internal/rete"
)

func TestSourcesParse(t *testing.T) {
	for _, s := range []Spec{Rubik, Weaver, Tourney} {
		src := Source(s)
		if _, err := ops5.Parse(src); err != nil {
			t.Errorf("%s source: %v", s.Name, err)
		}
		if !strings.Contains(src, "drive") {
			t.Errorf("%s: missing driver production", s.Name)
		}
		// One watcher production per spec watcher.
		if got := strings.Count(src, "(p watch-"); got != s.Watchers {
			t.Errorf("%s: %d watcher productions, want %d", s.Name, got, s.Watchers)
		}
	}
}

func TestRunsAreMatchIntensive(t *testing.T) {
	for _, s := range []Spec{Rubik, Weaver, Tourney} {
		log, st, err := Run(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if st.Firings != s.Cycles {
			t.Errorf("%s: fired %d, want %d (only the driver fires)", s.Name, st.Firings, s.Cycles)
		}
		if f := st.MatchFraction(); f < 0.9 {
			t.Errorf("%s: match fraction %.2f, want > 0.9 (match-intensive)", s.Name, f)
		}
		if len(log.Cycles) != s.Cycles {
			t.Errorf("%s: %d logged cycles", s.Name, len(log.Cycles))
		}
	}
}

func TestFigure3Shapes(t *testing.T) {
	speedAt := func(s Spec, m int) float64 {
		log, _, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		return pmatch.DefaultModel.Speedup(log, m)
	}
	rub := speedAt(Rubik, 13)
	wea := speedAt(Weaver, 13)
	tou := speedAt(Tourney, 13)
	// The figure's qualitative content: Rubik >= Weaver >> Tourney,
	// Rubik and Weaver "good", Tourney "quite low".
	if !(rub >= wea && wea > tou) {
		t.Errorf("ordering wrong: rubik %.1f, weaver %.1f, tourney %.1f", rub, wea, tou)
	}
	if rub < 9 {
		t.Errorf("rubik speedup %.1f, want good (>= 9)", rub)
	}
	if wea < 7 {
		t.Errorf("weaver speedup %.1f, want good (>= 7)", wea)
	}
	if tou > 6 {
		t.Errorf("tourney speedup %.1f, want quite low (<= 6)", tou)
	}
}

func TestTourneySaturates(t *testing.T) {
	log, _, err := Run(Tourney)
	if err != nil {
		t.Fatal(err)
	}
	s6 := pmatch.DefaultModel.Speedup(log, 6)
	s13 := pmatch.DefaultModel.Speedup(log, 13)
	if s13 > s6*1.25 {
		t.Errorf("tourney should saturate early: s6=%.2f s13=%.2f", s6, s13)
	}
}

func TestSpeedupSeries(t *testing.T) {
	log, _, err := Run(Weaver)
	if err != nil {
		t.Fatal(err)
	}
	ser := SpeedupSeries("weaver", log, 5, pmatch.DefaultModel)
	if len(ser.Points) != 5 {
		t.Fatalf("series points = %d", len(ser.Points))
	}
	y1, _ := ser.YAt(1)
	if y1 < 0.9 || y1 > 1.1 {
		t.Errorf("speedup at 1 process = %v, want ~1", y1)
	}
	for i := 1; i < len(ser.Points); i++ {
		if ser.Points[i].Y < ser.Points[i-1].Y-0.05 {
			t.Errorf("series should be nondecreasing early: %+v", ser.Points)
		}
	}
}

// renderForest serializes an activation forest (labels, costs, tree
// shape) so two captures can be compared exactly.
func renderForest(roots []*rete.Activation, sb *strings.Builder) {
	for _, a := range roots {
		fmt.Fprintf(sb, "%s(%g)", a.Label, a.Cost)
		if len(a.Children) > 0 {
			sb.WriteString("[")
			renderForest(a.Children, sb)
			sb.WriteString("]")
		}
		sb.WriteString(";")
	}
}

func renderLog(l *ops5.CostLog) string {
	var sb strings.Builder
	sb.WriteString("init:")
	renderForest(l.InitRoots, &sb)
	for i, c := range l.Cycles {
		fmt.Fprintf(&sb, "\ncycle%d(%g,%g,%g):", i, c.Resolve, c.Act, c.Match)
		renderForest(l.Roots(i), &sb)
	}
	return sb.String()
}

func TestDeterministicRuns(t *testing.T) {
	l1, s1, err := Run(Tourney)
	if err != nil {
		t.Fatal(err)
	}
	l2, s2, err := Run(Tourney)
	if err != nil {
		t.Fatal(err)
	}
	if s1.TotalInstr() != s2.TotalInstr() || l1.TotalInstr() != l2.TotalInstr() {
		t.Error("runs must be deterministic")
	}
	// Strict reproducibility: the full captured activation forests —
	// the schedulable workload of the match-parallelism studies — must
	// be identical across runs, not just their totals.
	if renderLog(l1) != renderLog(l2) {
		t.Error("captured activation forests differ across identical runs")
	}
}

// TestNaiveMatchKeepsForests runs each benchmark spec on the default
// engine, whose capturing network dispatches, and on the reference one
// (WithReference), which sweeps, and requires identical stats and
// captured forests: the reference matcher must not change the simulated
// workload the parallel-match scheduler sees.
func TestNaiveMatchKeepsForests(t *testing.T) {
	for _, s := range []Spec{Rubik, Weaver, Tourney} {
		ld, sd, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		ln, sn, err := Run(s, ops5.WithReference())
		if err != nil {
			t.Fatal(err)
		}
		if sd != sn {
			t.Errorf("%s: stats differ: default %+v reference %+v", s.Name, sd, sn)
		}
		if renderLog(ld) != renderLog(ln) {
			t.Errorf("%s: activation forests differ between the default and reference matchers", s.Name)
		}
	}
}
