package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"spampsm/internal/scene"
)

func TestPercentileCarriesItsSampleCount(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 9, 7, 8, 6, 10}
	if got := median(xs); got != 5 {
		t.Errorf("median = %v, want 5 (nearest rank)", got)
	}
	p90 := percentile(xs, 90)
	if p90.v != 9 || p90.n != len(xs) {
		t.Errorf("p90 = %+v, want value 9 of %d samples", p90, len(xs))
	}
	if got, want := p90.String(), "p90=9.000 (n=10)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if got := percentile(nil, 50).String(); got != "p50=0.000 (n=0)" {
		t.Errorf("empty sample prints %q", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{name: "op", start: ms(0), end: ms(100), parent: -1},
		{name: "a", start: ms(10), end: ms(40), parent: 0},
		{name: "b", start: ms(30), end: ms(60), parent: 0},  // overlaps a by 10
		{name: "c", start: ms(90), end: ms(120), parent: 0}, // sticks out by 20
		{name: "a.inner", start: ms(15), end: ms(20), parent: 1},
	}
	self := selfTimes(spans)
	// a∪b covers [10,60), c covers [90,100) inside the parent: 60 of 100.
	for i, want := range []time.Duration{ms(40), ms(25), ms(30), ms(30), ms(5)} {
		if self[i] != want {
			t.Errorf("self(%s) = %v, want %v", spans[i].name, self[i], want)
		}
	}
	sum := summarizeSpans(spans)
	if got := sum["op"]; got.count != 1 || got.total != ms(100) || got.self != ms(40) {
		t.Errorf("summary of op = %+v", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.end(tr.begin("x", -1, 0))
	var p *probe
	if p.tracer() != nil {
		t.Error("an absent probe must yield a nil tracer")
	}
}

func TestCalibrationKernelIsFrozen(t *testing.T) {
	if got := calibKernel(); got != calibChecksum {
		t.Fatalf("calibration kernel checksum %#x, frozen %#x: every baseline is void", got, uint64(calibChecksum))
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for i := 0; i < 3; i++ {
		_, a, err := inlineRequest(7, i)
		if err != nil {
			t.Fatal(err)
		}
		_, b, _ := inlineRequest(7, i)
		if !bytes.Equal(a, b) {
			t.Errorf("scene %d: the same seed gave different request bodies", i)
		}
		if _, c, _ := inlineRequest(8, i); bytes.Equal(a, c) {
			t.Errorf("scene %d: another seed gave the same request body", i)
		}
	}

	deltas := func(seed uint64) []byte {
		s := scene.Generate(scene.MOFF)
		var out []byte
		for k := uint64(0); k < 3; k++ {
			d := churn(s, seed, k)
			b, err := json.Marshal(d)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b...)
			if err := s.Apply(d); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	if !bytes.Equal(deltas(7), deltas(7)) {
		t.Error("the same seed gave different delta sequences")
	}
	if bytes.Equal(deltas(7), deltas(8)) {
		t.Error("another seed gave the same delta sequence")
	}
}

func TestProcStatWithAwkwardCommandName(t *testing.T) {
	line := "4242 (a (b) c) S 17 4242 4242 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 100 1000 10\n"
	st, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if st.ppid != 17 || st.cpu != 3.0 {
		t.Errorf("parsed %+v, want ppid 17 and 3 s of CPU", st)
	}
	if _, err := parseProcStat("garbage"); err == nil {
		t.Error("a malformed line must not parse")
	}
}

// TestBenchmarkJSONMatchesTheCode holds BENCHMARK.json, which the
// driver reads, to the tables the program reports from.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		checkName(w.Name)
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloadNames[i])
		}
		if _, err := newWorkload(w.Name, 1, nil); err != nil {
			t.Error(err)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	match := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			checkName(g.Name)
			if !unit.MatchString(g.Unit) {
				t.Errorf("%s: unit %q", g.Name, g.Unit)
			}
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s/%s, the program %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, w.name, w.unit, w.better)
			}
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s: better is %q", g.Name, g.Better)
			}
			switch {
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", g.Name)
			case bounded && (g.Bound == nil || *g.Bound != w.bound || w.bound <= 0 || w.bound > 0.25):
				t.Errorf("%s: bound must be in (0, 0.25] and equal the program's %v", g.Name, w.bound)
			}
		}
	}
	match("end_to_end", doc.EndToEnd, endToEnd, true)
	match("per_layer", doc.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("end_to_end must include setup_s")
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
}
