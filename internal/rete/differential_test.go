package rete

import (
	"fmt"
	"strings"
	"testing"

	"spampsm/internal/symtab"
	"spampsm/internal/wm"
)

// The differential oracle: every scenario is run through a template
// whose patterns carry their Consts, so Add dispatches, and through one
// compiled from the same patterns without them (swept), so Add offers
// every WME to every memory of its class, and the two must agree
// byte-for-byte on
//
//   - the conflict-set event sequence (activation/deactivation order,
//     production, and WME timetags of every instantiation),
//   - the aggregate Counters (the simulated NS32332 cost model), and
//   - the captured activation forests (labels, per-node costs, tree
//     shape).
//
// This is the invariant that keeps the paper's calibrated cost curves
// valid: a faster matcher changes wall-clock, never accounting. replay
// captures; TestDifferentialDispatchedVsSweptScripts (dispatch_test.go)
// replays the same scripts with capture off.

// seqRecorder is an agenda that logs conflict-set events in order,
// identifying instantiations by production name and WME timetags so
// logs are comparable across distinct Network instances.
type seqRecorder struct {
	events []string
}

func instKey(p *PNode, t *Token) string {
	var sb strings.Builder
	sb.WriteString(p.Name)
	for _, w := range t.WMEs() {
		fmt.Fprintf(&sb, ",%d", w.TimeTag)
	}
	return sb.String()
}

func (r *seqRecorder) Activate(p *PNode, t *Token)   { r.events = append(r.events, "+"+instKey(p, t)) }
func (r *seqRecorder) Deactivate(p *PNode, t *Token) { r.events = append(r.events, "-"+instKey(p, t)) }

// renderForest serializes an activation forest: labels, costs and tree
// shape, in order.
func renderForest(batch []*Activation, sb *strings.Builder) {
	for _, a := range batch {
		fmt.Fprintf(sb, "%s(%g)", a.Label, a.Cost)
		if len(a.Children) > 0 {
			sb.WriteString("[")
			renderForest(a.Children, sb)
			sb.WriteString("]")
		}
		sb.WriteString(";")
	}
}

// diffScript is one generated scenario: productions plus a WM mutation
// sequence, replayable against any Network configuration.
type diffScript struct {
	classes *wm.Classes
	defs    []*wm.ClassDef
	prods   [][]Pattern
	// steps: step >= 0 asserts makes[step]; step < 0 removes the live
	// WME at index ^step.
	steps []int
	makes []map[string]symtab.Value
	mkCls []string
}

func genScript(seed uint64) *diffScript {
	rng := &oracleRng{s: seed * 10007}
	cs := wm.NewClasses()
	ca, _ := cs.Declare("alpha", "x", "y")
	cb, _ := cs.Declare("beta", "u", "v", "w")
	s := &diffScript{classes: cs, defs: []*wm.ClassDef{ca, cb}}
	nProds := 3 + rng.intn(4)
	for pi := 0; pi < nProds; pi++ {
		nCEs := 1 + rng.intn(4)
		var pats []Pattern
		for ci := 0; ci < nCEs; ci++ {
			negated := ci > 0 && rng.intn(4) == 0
			pat, _ := genPattern(rng, s.defs, ci, negated)
			pats = append(pats, pat)
		}
		s.prods = append(s.prods, pats)
	}
	live := 0
	for step := 0; step < 80; step++ {
		if live == 0 || rng.intn(3) > 0 {
			cd := s.defs[rng.intn(len(s.defs))]
			sets := map[string]symtab.Value{}
			for _, a := range cd.Attrs {
				sets[a] = symtab.Int(int64(rng.intn(3)))
			}
			s.steps = append(s.steps, len(s.makes))
			s.makes = append(s.makes, sets)
			s.mkCls = append(s.mkCls, cd.Name)
			live++
		} else {
			s.steps = append(s.steps, ^rng.intn(live))
			live--
		}
	}
	return s
}

// diffRun is one replay of a script: the event log, the per-step
// counters, and the serialized activation forests.
type diffRun struct {
	events   []string
	counters []Counters
	forests  string
}

// swept returns the patterns without their Consts. A template compiled
// from them dispatches no class: every Add sweeps, which is the
// reference matcher.
func swept(pats []Pattern) []Pattern {
	out := make([]Pattern, len(pats))
	for i, p := range pats {
		p.Consts = nil
		out[i] = p
	}
	return out
}

// patterns returns a production's patterns as the dispatched or the
// swept template compiles them.
func patterns(pats []Pattern, dispatched bool) []Pattern {
	if dispatched {
		return pats
	}
	return swept(pats)
}

// replay runs the script on a freshly compiled network (newTestNet +
// AddProduction). Each step is one batch so captured forests line up
// step-for-step.
func (s *diffScript) replay(t *testing.T, dispatched bool) *diffRun {
	t.Helper()
	rec := &seqRecorder{}
	net := newTestNet(rec)
	for pi, pats := range s.prods {
		if _, err := net.AddProduction(fmt.Sprintf("p%d", pi), patterns(pats, dispatched), nil); err != nil {
			t.Fatal(err)
		}
	}
	return s.replayOn(t, net.Network(), rec)
}

// template compiles the script's productions into a shared Template.
func (s *diffScript) template(t *testing.T, dispatched bool) *Template {
	t.Helper()
	tmpl := NewTemplate()
	for pi, pats := range s.prods {
		if _, err := tmpl.AddProduction(fmt.Sprintf("p%d", pi), patterns(pats, dispatched), nil); err != nil {
			t.Fatal(err)
		}
	}
	return tmpl
}

// replayOn runs the script on an already-compiled network whose agenda
// is rec, capturing activation forests.
func (s *diffScript) replayOn(t *testing.T, net *Network, rec *seqRecorder) *diffRun {
	t.Helper()
	return s.run(t, net, rec, true)
}

// run is replayOn with capture on or off.
func (s *diffScript) run(t *testing.T, net *Network, rec *seqRecorder, capture bool) *diffRun {
	t.Helper()
	net.SetCapture(capture)
	mem := wm.NewMemory(s.classes)
	var live []*wm.WME
	run := &diffRun{}
	var forests strings.Builder
	record := func(step int) {
		run.events = append(run.events, fmt.Sprintf("#%d", step))
		run.counters = append(run.counters, net.Totals())
		fmt.Fprintf(&forests, "#%d:", step)
		renderForest(net.TakeBatch(), &forests)
	}
	for i, step := range s.steps {
		net.StartBatch()
		if step >= 0 {
			w, err := mem.Make(s.mkCls[step], s.makes[step])
			if err != nil {
				t.Fatal(err)
			}
			net.Add(w)
			live = append(live, w)
		} else {
			k := ^step
			w := live[k]
			if err := mem.Remove(w); err != nil {
				t.Fatal(err)
			}
			net.Remove(w)
			live = append(live[:k], live[k+1:]...)
		}
		run.events = append(run.events, rec.events...)
		rec.events = rec.events[:0]
		record(i)
	}
	// Drain.
	for len(live) > 0 {
		net.StartBatch()
		w := live[len(live)-1]
		live = live[:len(live)-1]
		if err := mem.Remove(w); err != nil {
			t.Fatal(err)
		}
		net.Remove(w)
		run.events = append(run.events, rec.events...)
		rec.events = rec.events[:0]
		record(-1)
	}
	run.forests = forests.String()
	return run
}

func diffRunsEqual(t *testing.T, seed uint64, a, b *diffRun, aName, bName string) {
	t.Helper()
	if len(a.events) != len(b.events) {
		t.Fatalf("seed %d: event count %s=%d %s=%d", seed, aName, len(a.events), bName, len(b.events))
	}
	for i := range a.events {
		if a.events[i] != b.events[i] {
			t.Fatalf("seed %d: event %d: %s=%q %s=%q", seed, i, aName, a.events[i], bName, b.events[i])
		}
	}
	for i := range a.counters {
		if a.counters[i] != b.counters[i] {
			t.Fatalf("seed %d: counters after step %d differ:\n %s: %+v\n %s: %+v",
				seed, i, aName, a.counters[i], bName, b.counters[i])
		}
	}
	if a.forests != b.forests {
		t.Fatalf("seed %d: activation forests differ between %s and %s", seed, aName, bName)
	}
}

// TestDifferentialIndexedVsNaive replays randomized scenarios through
// the dispatched and the swept (no Consts) template, capturing, and
// requires identical conflict-set event sequences, byte-identical
// Counters after every step, and identical captured activation forests.
func TestDifferentialIndexedVsNaive(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		s := genScript(seed)
		dispatched := s.replay(t, true)
		swept := s.replay(t, false)
		diffRunsEqual(t, seed, dispatched, swept, "dispatched", "swept")
	}
}

// TestDeterministicActivationForests replays the same scenario twice
// through the default matcher and requires the two captured runs to be
// identical — memory iteration order is insertion order, never map
// order, so activation forests are reproducible.
func TestDeterministicActivationForests(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		s := genScript(seed * 31)
		run1 := s.replay(t, true)
		run2 := s.replay(t, true)
		diffRunsEqual(t, seed, run1, run2, "run1", "run2")
	}
}

// TestIndexedIsDefault pins that dispatch is not a mode: a network
// dispatches every class whose patterns declare Consts, capturing or
// not, so a WME whose value no memory is keyed on runs no filter — and
// is still charged the memory's activation, which a capturing network
// records.
func TestIndexedIsDefault(t *testing.T) {
	for _, capture := range []bool{false, true} {
		n := newTestNet(&seqRecorder{})
		n.SetCapture(capture)
		pat := eqPattern("k", 0, symtab.Int(1))
		filter, calls := pat.Filter, 0
		pat.Filter = func(w *wm.WME) bool { calls++; return filter(w) }
		if _, err := n.AddProduction("p", []Pattern{pat}, nil); err != nil {
			t.Fatal(err)
		}
		cs := wm.NewClasses()
		if _, err := cs.Declare("k", "a"); err != nil {
			t.Fatal(err)
		}
		w, err := wm.NewMemory(cs).Make("k", map[string]symtab.Value{"a": symtab.Int(2)})
		if err != nil {
			t.Fatal(err)
		}
		n.StartBatch()
		n.Add(w)
		if calls != 0 {
			t.Errorf("capture=%v: a WME no memory is keyed on ran %d filters", capture, calls)
		}
		if c := n.Totals(); c.Activations != 1 || c.ConstTests != 1 {
			t.Errorf("capture=%v: counters %+v, want the one memory's activation and constant test", capture, c)
		}
		if forest := n.TakeBatch(); capture != (len(forest) == 1) {
			t.Errorf("capture=%v: %d root activations", capture, len(forest))
		}
	}
}
