package spam

import (
	"reflect"
	"testing"

	"spampsm/internal/tlp"
)

// TestSPAMDifferentialIndexedVsNaive is the full-rule-set differential
// oracle: a complete four-phase interpretation (RTF, LCC, FA, MODEL)
// over the scaled DC scene must be observably identical under the
// indexed (default) and naive matchers — same firings, same simulated
// instruction counts per phase, same fragments, consistent pairs,
// outcomes, functional areas, and final model.
func TestSPAMDifferentialIndexedVsNaive(t *testing.T) {
	t.Parallel()
	indexed := interpretUnder(t, tlp.BuildMode{})
	naive := interpretUnder(t, tlp.BuildMode{NaiveMatch: true})
	compareInterpretations(t, "indexed", indexed, "naive", naive)
}

// interpretUnder interprets a fresh scaled DC scene under a build mode.
func interpretUnder(t *testing.T, mode tlp.BuildMode) *Interpretation {
	t.Helper()
	in, err := smallDC(t).Interpret(InterpretOptions{Workers: 2, Build: mode})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// compareInterpretations asserts that two full interpretations are
// observably identical: same phase statistics (firings, tasks,
// simulated instruction counts), fragments, consistent pairs, LCC
// outcomes, functional areas, and final model.
func compareInterpretations(t *testing.T, aName string, a *Interpretation, bName string, b *Interpretation) {
	t.Helper()
	if len(a.Phases) != len(b.Phases) {
		t.Fatalf("phase count: %s %d %s %d", aName, len(a.Phases), bName, len(b.Phases))
	}
	for i := range a.Phases {
		ap, bp := &a.Phases[i], &b.Phases[i]
		if ap.Phase != bp.Phase || ap.Firings != bp.Firings || ap.Tasks != bp.Tasks {
			t.Errorf("phase %s: firings/tasks differ: %s %+v %s %+v", ap.Phase, aName, ap, bName, bp)
		}
		if ap.Instr != bp.Instr || ap.MatchInstr != bp.MatchInstr {
			t.Errorf("phase %s: simulated instructions differ: %s (%.0f, %.0f) %s (%.0f, %.0f)",
				ap.Phase, aName, ap.Instr, ap.MatchInstr, bName, bp.Instr, bp.MatchInstr)
		}
	}
	if !reflect.DeepEqual(a.Fragments, b.Fragments) {
		t.Errorf("fragments differ: %s %d %s %d", aName, len(a.Fragments), bName, len(b.Fragments))
	}
	if !reflect.DeepEqual(a.Pairs, b.Pairs) {
		t.Errorf("consistent pairs differ: %s %d %s %d", aName, len(a.Pairs), bName, len(b.Pairs))
	}
	if !reflect.DeepEqual(a.Outcomes, b.Outcomes) {
		t.Errorf("LCC outcomes differ: %s %d %s %d", aName, len(a.Outcomes), bName, len(b.Outcomes))
	}
	if !reflect.DeepEqual(a.FAs, b.FAs) {
		t.Errorf("functional areas differ: %s %d %s %d", aName, len(a.FAs), bName, len(b.FAs))
	}
	if a.ModelFound != b.ModelFound || !reflect.DeepEqual(a.Model, b.Model) {
		t.Errorf("final models differ: %s %+v %s %+v", aName, a.Model, bName, b.Model)
	}
	if a.TotalFirings() == 0 {
		t.Fatal("interpretation fired nothing: differential test is vacuous")
	}
}
