package bench

import (
	"os"
	"strings"
	"testing"

	"spampsm/internal/core"
	"spampsm/internal/spam"
)

// quickSuite returns a suite over reduced subsets for fast tests.
func quickSuite() *Suite {
	opt := DefaultOptions()
	opt.SubsetScale = 0.4
	opt.FullScale = 0.6
	return NewSuite(opt)
}

func TestNamesAndDispatch(t *testing.T) {
	s := quickSuite()
	names := Names()
	if len(names) != 10 {
		t.Errorf("names = %v", names)
	}
	if _, err := s.Run("table42"); err == nil {
		t.Error("unknown experiment must fail")
	}
}

func TestTable4Static(t *testing.T) {
	out := Table4()
	for _, want := range []string{"SPAM/PSM :: WME", "Soar :: None", "Implicit", "Explicit"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 4 missing %q", want)
		}
	}
}

func TestFig3Output(t *testing.T) {
	s := quickSuite()
	out, err := s.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"rubik", "weaver", "tourney", "match procs"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig3 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable8AndFig6(t *testing.T) {
	s := quickSuite()
	out, err := s.Table8()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SF Level 3", "MOFF Level 2", "Prods fired"} {
		if !strings.Contains(out, want) {
			t.Errorf("table8 missing %q", want)
		}
	}
	out, err = s.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Level 3") || !strings.Contains(out, "Level 2") {
		t.Errorf("fig6 missing levels:\n%s", out)
	}
}

func TestFig9Output(t *testing.T) {
	s := quickSuite()
	out, err := s.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"svm", "pure-tlp", "Translational effect", "false contention"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig9 missing %q", want)
		}
	}
}

func TestPaperExperimentsQuick(t *testing.T) {
	// Run the heavier paper experiments once at reduced scale and check
	// their structural content.
	opt := DefaultOptions()
	opt.SubsetScale = 0.25
	opt.FullScale = 0.35
	s := NewSuite(opt)

	out, err := s.Tables123()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"log #63", "log #405", "log #415", "Total CPU Time", "Effective Productions/Second"} {
		if !strings.Contains(out, want) {
			t.Errorf("tables123 missing %q", want)
		}
	}

	out, err = s.Tables567()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(out, "Level 4") != 3 || strings.Count(out, "Level 1") != 3 {
		t.Errorf("tables567 should have all levels for all datasets:\n%s", out)
	}

	out, err = s.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Asymptotic limits") || !strings.Contains(out, "peak") {
		t.Errorf("fig7 missing limits/peaks:\n%s", out)
	}

	out, err = s.Table9()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Task7") || !strings.Contains(out, "*") || !strings.Contains(out, "(") {
		t.Errorf("table9 missing grid structure:\n%s", out)
	}

	out, err = s.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Figure 8a") || !strings.Contains(out, "Figure 8b") {
		t.Errorf("fig8 missing panels:\n%s", out)
	}
}

func TestMeasurementCaching(t *testing.T) {
	s := quickSuite()
	m1, err := s.Measurement("DC", core.LCC, spam.Level3, false)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := s.Measurement("DC", core.LCC, spam.Level3, false)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("measurement should be cached")
	}
	m3, err := s.Measurement("DC", core.LCC, spam.Level2, false)
	if err != nil {
		t.Fatal(err)
	}
	if m3 == m1 {
		t.Error("different level must be a different measurement")
	}
}

func TestSubsetScaleApplied(t *testing.T) {
	small := quickSuite()
	d1, err := small.Dataset("DC")
	if err != nil {
		t.Fatal(err)
	}
	full := NewSuite(DefaultOptions())
	d2, err := full.Dataset("DC")
	if err != nil {
		t.Fatal(err)
	}
	if len(d1.Scene.Regions) >= len(d2.Scene.Regions) {
		t.Errorf("scaled subset (%d regions) should be smaller than full (%d)",
			len(d1.Scene.Regions), len(d2.Scene.Regions))
	}
}

func TestExtensionExperiments(t *testing.T) {
	// A quarter of the calibrated scale: ext-memsched's stress scene is
	// 10x the subset scale, and at quickSuite's 0.4 interpreting it
	// alone takes 9 s. The stress invariant it returns an error on is
	// scale-free.
	opt := DefaultOptions()
	opt.SubsetScale = 0.25
	s := NewSuite(opt)
	for _, name := range ExtNames() {
		out, err := s.Run(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(out) < 200 || !strings.Contains(out, "\n") {
			t.Errorf("%s output looks empty:\n%s", name, out)
		}
	}
}

func TestExtSchedShowsGain(t *testing.T) {
	s := quickSuite()
	out, err := s.ExtSched()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Largest-first") {
		t.Errorf("missing LPT column:\n%s", out)
	}
}

func TestCSVFor(t *testing.T) {
	s := quickSuite()
	files, err := s.CSVFor("fig6")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("fig6 CSV files = %v", files)
	}
	for name, content := range files {
		if !strings.HasPrefix(content, "task_procs,SF,DC,MOFF") {
			t.Errorf("%s header wrong: %q", name, strings.SplitN(content, "\n", 2)[0])
		}
		if strings.Count(content, "\n") < 10 {
			t.Errorf("%s too short", name)
		}
	}
	// Table experiments yield no CSV.
	files, err = s.CSVFor("table8")
	if err != nil || len(files) != 0 {
		t.Errorf("table8 CSV = %v, %v", files, err)
	}
}

func TestDefaultsFilled(t *testing.T) {
	s := NewSuite(Options{})
	if s.Opt.MaxTaskProcs != 14 || s.Opt.MaxMatchProcs != 13 || s.Opt.FullScale != 3 {
		t.Errorf("defaults not applied: %+v", s.Opt)
	}
}

// TestReferenceSections regenerates the cheap sections of the
// checked-in bench_reference.txt at the paper's scale and holds the
// file to them byte for byte, in RunAll's `=== name ===` framing.
func TestReferenceSections(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full-scale subsets")
	}
	data, err := os.ReadFile("../../bench_reference.txt")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]string{}
	for _, sec := range strings.Split("\n"+string(data), "\n=== ")[1:] {
		name, body, _ := strings.Cut(sec, " ===\n")
		sections[name] = body
	}
	s := NewSuite(DefaultOptions())
	for _, name := range []string{"table4", "fig3", "table8", "tables567"} {
		out, err := s.Run(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want, ok := sections[name]; !ok {
			t.Errorf("bench_reference.txt has no %s section", name)
		} else if out != want {
			t.Errorf("%s differs from bench_reference.txt:\ngot:\n%s\nwant:\n%s", name, out, want)
		}
	}
}
